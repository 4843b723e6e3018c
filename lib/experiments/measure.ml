(** One measurement record for every bench section (see measure.mli). *)

module J = Mv_obs.Json

type pct = { p50_s : float; p90_s : float; p99_s : float }

type t = {
  section : string;
  params : (string * J.t) list;
  metrics : (string * J.t) list;
  pcts : (string * pct) list;
  verdicts : (string * bool) list;
  subs : (string * t list) list;
}

let make ?(params = []) ?(metrics = []) ?(pcts = []) ?(verdicts = [])
    ?(subs = []) section =
  { section; params; metrics; pcts; verdicts; subs }

let pct_of h =
  let q = Mv_obs.Instrument.quantile h in
  { p50_s = q 0.5; p90_s = q 0.9; p99_s = q 0.99 }

let field m k = List.assoc k (m.params @ m.metrics)

let int m k = match field m k with J.Int i -> i | _ -> raise Not_found

let float m k = match field m k with J.Float f -> f | _ -> raise Not_found

let string m k = match field m k with J.String s -> s | _ -> raise Not_found

let verdict m k = List.assoc k m.verdicts

(* ---- JSON ---- *)

(* Nest (path, value) fields into object fields, grouping paths by their
   first segment in first-appearance order. A head holding one value is a
   leaf, kept as is (an object's own field names are never split). An
   object-valued leaf merges its fields with the other paths under its
   head; any other collision would drop a value, so it raises. *)
let rec nest prefix fields =
  let heads =
    List.fold_left
      (fun acc (p, _) ->
        let h = List.hd p in
        if List.mem h acc then acc else h :: acc)
      [] fields
  in
  List.rev_map
    (fun h ->
      match
        List.filter_map
          (function h' :: rest, v when h' = h -> Some (rest, v) | _ -> None)
          fields
      with
      | [ ([], v) ] -> (h, v)
      | group ->
          let key = prefix ^ h in
          ( h,
            J.Obj
              (nest (key ^ ".")
                 (List.concat_map
                    (function
                      | [], J.Obj kvs -> List.map (fun (k, v) -> ([ k ], v)) kvs
                      | [], _ ->
                          invalid_arg
                            ("Measure.to_json: colliding values at " ^ key)
                      | field -> [ field ])
                    group)) ))
    heads

let pct_fields p =
  [
    ("p50_s", J.Float p.p50_s);
    ("p90_s", J.Float p.p90_s);
    ("p99_s", J.Float p.p99_s);
  ]

let rec to_json m =
  J.Obj
    (nest ""
       (List.map
          (fun (k, v) -> (String.split_on_char '.' k, v))
          (m.params @ m.metrics
          @ List.map (fun (k, p) -> (k, J.Obj (pct_fields p))) m.pcts
          @ List.map (fun (k, b) -> (k, J.Bool b)) m.verdicts
          @ List.map (fun (k, ms) -> (k, J.List (List.map to_json ms))) m.subs
          )))

let rec failures m =
  List.filter_map (fun (k, ok) -> if ok then None else Some k) m.verdicts
  @ List.concat_map
      (fun (name, ms) ->
        List.concat
          (List.mapi
             (fun i s ->
               List.map (Printf.sprintf "%s.%d.%s" name i) (failures s))
             ms))
      m.subs

(* ---- text ---- *)

let rec text = function
  | J.Int i -> string_of_int i
  | J.Float f when Float.is_integer f || abs_float f >= 1e4 ->
      Printf.sprintf "%.0f" f
  | J.Float f -> Printf.sprintf "%.4g" f
  | J.Bool b -> string_of_bool b
  | J.String s -> s
  | J.Null -> "null"
  | J.List [] -> "-"
  | J.List xs -> String.concat "," (List.map text xs)
  | J.Obj _ -> "{...}"

(* Scalars and lists of scalars render; object-valued exports do not. *)
let printable = function
  | J.Obj _ -> false
  | J.List xs ->
      List.for_all (function J.Obj _ | J.List _ -> false | _ -> true) xs
  | _ -> true

(* One flat (column, text) row per measure, as a sub-measure table shows it. *)
let row m =
  List.filter_map
    (fun (k, v) -> if printable v then Some (k, text v) else None)
    (m.params @ m.metrics)
  @ List.concat_map
      (fun (k, p) ->
        List.map (fun (f, v) -> (k ^ "." ^ f, text v)) (pct_fields p))
      m.pcts
  @ List.map (fun (k, b) -> (k, string_of_bool b)) m.verdicts

let table b ms =
  match ms with
  | [] -> ()
  | m0 :: _ ->
      let cols = List.map fst (row m0) in
      let rows =
        List.map
          (fun m ->
            let r = row m in
            List.map
              (fun c -> Option.value ~default:"-" (List.assoc_opt c r))
              cols)
          ms
      in
      let widths =
        List.mapi
          (fun i c ->
            List.fold_left
              (fun w r -> max w (String.length (List.nth r i)))
              (String.length c) rows)
          cols
      in
      let line cells =
        let s =
          String.concat " " (List.map2 (Printf.sprintf "%-*s") widths cells)
        in
        let n = ref (String.length s) in
        while !n > 0 && s.[!n - 1] = ' ' do
          decr n
        done;
        Printf.bprintf b "    %s\n" (String.sub s 0 !n)
      in
      line cols;
      List.iter line rows

let params_text m =
  String.concat " "
    (List.filter_map
       (fun (k, v) -> if printable v then Some (k ^ "=" ^ text v) else None)
       m.params)

(* Every sub-measure list as a table, then the lists nested in its
   elements, each titled by its path and its element's params. *)
let rec tables b path m =
  List.iter
    (fun (name, ms) ->
      Printf.bprintf b "  %s%s (%d):\n" path name (List.length ms);
      table b ms;
      List.iteri
        (fun i s ->
          let ps = params_text s in
          tables b
            (Printf.sprintf "%s%s.%d%s " path name i
               (if ps = "" then "" else " " ^ ps))
            s)
        ms)
    m.subs

let render m =
  let b = Buffer.create 1024 in
  Printf.bprintf b "\n== %s ==\n" m.section;
  let params = params_text m in
  if params <> "" then Printf.bprintf b "(%s)\n" params;
  let kv = row { m with params = [] } in
  let width = List.fold_left (fun w (k, _) -> max w (String.length k)) 0 kv in
  List.iter (fun (k, v) -> Printf.bprintf b "  %-*s  %s\n" width k v) kv;
  tables b "" m;
  Buffer.contents b
