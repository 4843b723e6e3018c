(* Rendering surfaces for the obs layer. Two output formats:

   - OpenMetrics text exposition, built from a neutral [family] list so
     layers above mv_obs (the per-view health ledger lives in mv_core)
     can contribute families without a dependency cycle.
   - One canonical JSON schema for registry dumps, so every subcommand
     that prints metrics emits the same document shape. *)

module I = Instrument

type labels = (string * string) list

type summary = {
  s_count : int;
  s_sum : float;
  s_quantiles : (float * float) list;  (** (q, value) *)
}

type family =
  | Counter of { name : string; help : string; samples : (labels * float) list }
  | Gauge of { name : string; help : string; samples : (labels * float) list }
  | Summary of { name : string; help : string; samples : (labels * summary) list }

(* ---- OpenMetrics text format ---- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let labels_str = function
  | [] -> ""
  | ls ->
      let parts =
        List.map
          (fun (k, v) ->
            Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
          ls
      in
      "{" ^ String.concat "," parts ^ "}"

let float_str f =
  (* OpenMetrics has no null: non-finite summary stats render as NaN,
     which scrapers treat as "no data" *)
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" f

let render_family b = function
  | Counter { name; help; samples } ->
      let name = sanitize name in
      Printf.bprintf b "# TYPE %s counter\n" name;
      if help <> "" then Printf.bprintf b "# HELP %s %s\n" name help;
      List.iter
        (fun (ls, v) ->
          Printf.bprintf b "%s_total%s %s\n" name (labels_str ls) (float_str v))
        samples
  | Gauge { name; help; samples } ->
      let name = sanitize name in
      Printf.bprintf b "# TYPE %s gauge\n" name;
      if help <> "" then Printf.bprintf b "# HELP %s %s\n" name help;
      List.iter
        (fun (ls, v) ->
          Printf.bprintf b "%s%s %s\n" name (labels_str ls) (float_str v))
        samples
  | Summary { name; help; samples } ->
      let name = sanitize name in
      Printf.bprintf b "# TYPE %s summary\n" name;
      if help <> "" then Printf.bprintf b "# HELP %s %s\n" name help;
      List.iter
        (fun (ls, s) ->
          List.iter
            (fun (q, v) ->
              Printf.bprintf b "%s%s %s\n" name
                (labels_str (ls @ [ ("quantile", Printf.sprintf "%g" q) ]))
                (float_str v))
            s.s_quantiles;
          Printf.bprintf b "%s_sum%s %s\n" name (labels_str ls)
            (float_str s.s_sum);
          Printf.bprintf b "%s_count%s %d\n" name (labels_str ls) s.s_count)
        samples

let render families =
  let b = Buffer.create 4096 in
  List.iter (render_family b) families;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---- families from a registry ---- *)

let families_of_registry ?(prefix = "") reg =
  List.filter_map
    (fun name ->
      let fname = prefix ^ name in
      match Registry.find reg name with
      | Some (Registry.Counter c) ->
          Some
            (Counter
               {
                 name = fname;
                 help = "";
                 samples = [ ([], float_of_int (I.value c)) ];
               })
      | Some (Registry.Histogram h) ->
          let q p = (p, I.quantile h p) in
          Some
            (Summary
               {
                 name = fname;
                 help = "";
                 samples =
                   [
                     ( [],
                       {
                         s_count = I.count h;
                         s_sum = I.sum h;
                         s_quantiles = [ q 0.5; q 0.9; q 0.95; q 0.99 ];
                       } );
                   ];
               })
      | None -> None)
    (Registry.names reg)

(* ---- families from a timeline ---- *)

let families_of_timeline ?(prefix = "timeline.") tl =
  let ss = Timeline.samples tl in
  let nwin = List.length ss in
  let window_label i = [ ("window", string_of_int i) ] in
  let durs =
    Gauge
      {
        name = prefix ^ "window_dur_seconds";
        help = "sampling window length";
        samples = List.mapi (fun i s -> (window_label i, s.Timeline.dur)) ss;
      }
  in
  (* group per metric: one family whose samples are the windows *)
  let tbl = Hashtbl.create 32 in
  let push name sample =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (sample :: prev)
  in
  List.iteri
    (fun i s ->
      List.iter
        (fun (n, d) -> push (n ^ "_window_delta") (window_label i, float_of_int d))
        s.Timeline.counters;
      List.iter
        (fun (n, w) ->
          push (n ^ "_window_count")
            (window_label i, float_of_int w.Timeline.w_count);
          push (n ^ "_window_p50") (window_label i, w.Timeline.w_p50);
          push (n ^ "_window_p99") (window_label i, w.Timeline.w_p99))
        s.Timeline.histograms)
    ss;
  let grouped =
    Hashtbl.fold
      (fun name samples acc ->
        Gauge { name = prefix ^ name; help = ""; samples = List.rev samples }
        :: acc)
      tbl []
    |> List.sort (fun a b ->
           let name = function
             | Counter { name; _ } -> name
             | Gauge { name; _ } -> name
             | Summary { name; _ } -> name
           in
           String.compare (name a) (name b))
  in
  if nwin = 0 then [] else durs :: grouped

(* ---- one canonical JSON schema for registry dumps ---- *)

let registry_json ?timeline ?extra reg =
  let base = [ ("metrics", Registry.to_json reg) ] in
  let base =
    match timeline with
    | Some tl -> base @ [ ("timeline", Timeline.to_json tl) ]
    | None -> base
  in
  let base = match extra with Some kvs -> base @ kvs | None -> base in
  Json.Obj base
