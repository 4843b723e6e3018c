(** Tiny CI validator for the bench trajectory and CLI output.

      json_check.exe FILE path.to.key ...       # JSON parses, keys present
      json_check.exe --contains FILE STRING ... # raw substring checks
      json_check.exe --compare FRESH BASELINE \
        [--tolerance F] [--structure-only] \
        [--percentile-tolerance F] \
        [--ignore KEY]... \
        [--require PATH]...                     # fresh run vs committed

    Path segments are object fields; a numeric segment indexes a list.

    [--require PATH] (repeatable, [--compare] mode) asserts the dotted
    path is present in FRESH regardless of the baseline's contents — how
    CI pins sections newer than the committed baseline (the [timeline] /
    [health] observability exports) without regenerating it.

    [--compare] walks every key path of BASELINE and requires it in FRESH
    with the same JSON kind. Lists are compared element by element over
    the indices both have, so every grid cell is checked and a shorter
    sweep still type-checks against a full baseline. Unless
    [--structure-only], numeric [wall_time_s] leaves are also compared:
    fresh must not exceed baseline by more than the relative tolerance
    (default 0.5, i.e. +50%), with a 1ms absolute slack so micro-timings
    don't flap. With [--percentile-tolerance F] the [p50_s]/[p90_s]/[p99_s]
    percentile leaves are compared the same way against their own relative
    tolerance F (plus a 0.5ms absolute slack) — this check is independent
    of [--structure-only], so CI can gate percentiles while skipping the
    host-dependent batch wall times.
    Object fields named by [--ignore] (repeatable) are skipped
    entirely — neither required nor compared — so machine-dependent
    additions (the [domains]/[scaling]/[speedup] fields of the multicore
    sweep) don't destabilize baseline gating on differently sized hosts.
    Exit 0 when every check passes, 1 with a message otherwise — so a dune
    rule can gate @runtest-quick on the emitted metrics. *)

module J = Mv_obs.Json

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let lookup json path =
  let segs = String.split_on_char '.' path in
  List.fold_left
    (fun acc seg ->
      match acc with
      | None -> None
      | Some j -> (
          match int_of_string_opt seg with
          | Some i -> (
              match j with
              | J.List xs -> List.nth_opt xs i
              | _ -> None)
          | None -> J.member seg j))
    (Some json) segs

let kind = function
  | J.Null -> "null"
  | J.Bool _ -> "bool"
  | J.Int _ | J.Float _ -> "number"
  | J.String _ -> "string"
  | J.List _ -> "list"
  | J.Obj _ -> "object"

let num = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

(* Walk baseline, requiring each of its key paths in fresh with the same
   kind. Lists are compared at every index both have: each baseline
   element's shape must be producible by the fresh run, but the sweeps
   may differ in length. Numeric [wall_time_s] leaves are timing-checked
   unless [structure_only]. Returns failure messages (empty = pass) and
   the number of paths visited. *)
let compare_trees ~structure_only ~tolerance ~percentile_tolerance ~ignored
    fresh baseline =
  let errors = ref [] in
  let checked = ref 0 in
  let err path fmt =
    Printf.ksprintf (fun m -> errors := (path ^ ": " ^ m) :: !errors) fmt
  in
  let percentile_key k = k = "p50_s" || k = "p90_s" || k = "p99_s" in
  let rec go path b f =
    incr checked;
    match (b, f) with
    | J.Obj bfields, J.Obj _ ->
        List.iter
          (fun (k, bv) ->
            if List.mem k ignored then ()
            else
            let p = if path = "" then k else path ^ "." ^ k in
            match J.member k f with
            | None -> err p "missing in fresh run"
            | Some fv ->
                if
                  (not structure_only)
                  && k = "wall_time_s"
                  && num bv <> None
                  && num fv <> None
                then begin
                  let bt = Option.get (num bv) and ft = Option.get (num fv) in
                  if ft > (bt *. (1.0 +. tolerance)) +. 0.001 then
                    err p "wall-time regression: %.6fs vs baseline %.6fs (>%+.0f%%)"
                      ft bt (tolerance *. 100.)
                end;
                (match percentile_tolerance with
                | Some ptol
                  when percentile_key k && num bv <> None && num fv <> None ->
                    let bt = Option.get (num bv)
                    and ft = Option.get (num fv) in
                    if ft > (bt *. (1.0 +. ptol)) +. 0.0005 then
                      err p
                        "percentile regression: %.6fs vs baseline %.6fs \
                         (>%+.0f%%)"
                        ft bt (ptol *. 100.)
                | _ -> ());
                go p bv fv)
          bfields
    | J.List (_ :: _), J.List [] -> err path "list is empty in fresh run"
    | J.List bs, J.List fs ->
        let rec pairs i = function
          | b :: bs, f :: fs ->
              go (Printf.sprintf "%s.%d" path i) b f;
              pairs (i + 1) (bs, fs)
          | _ -> ()
        in
        pairs 0 (bs, fs)
    | J.Null, _ -> ()
    | _ ->
        if kind b <> kind f then
          err path "kind mismatch: fresh %s vs baseline %s" (kind f) (kind b)
  in
  go "" baseline fresh;
  (List.rev !errors, !checked)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "--compare" :: fresh_file :: baseline_file :: opts ->
      let structure_only = List.mem "--structure-only" opts in
      let tolerance =
        let rec find = function
          | "--tolerance" :: v :: _ -> (
              match float_of_string_opt v with
              | Some f when f >= 0.0 -> f
              | _ -> fail "--tolerance: bad value %S" v)
          | _ :: rest -> find rest
          | [] -> 0.5
        in
        find opts
      in
      let percentile_tolerance =
        let rec find = function
          | "--percentile-tolerance" :: v :: _ -> (
              match float_of_string_opt v with
              | Some f when f >= 0.0 -> Some f
              | _ -> fail "--percentile-tolerance: bad value %S" v)
          | _ :: rest -> find rest
          | [] -> None
        in
        find opts
      in
      let ignored =
        let rec collect = function
          | "--ignore" :: k :: rest -> k :: collect rest
          | _ :: rest -> collect rest
          | [] -> []
        in
        collect opts
      in
      let required =
        let rec collect = function
          | "--require" :: p :: rest -> p :: collect rest
          | _ :: rest -> collect rest
          | [] -> []
        in
        collect opts
      in
      let parse file =
        match J.of_string (read_file file) with
        | j -> j
        | exception J.Parse_error e -> fail "%s: invalid JSON: %s" file e
      in
      let fresh = parse fresh_file and baseline = parse baseline_file in
      let errors, checked =
        compare_trees ~structure_only ~tolerance ~percentile_tolerance ~ignored
          fresh baseline
      in
      let errors =
        errors
        @ List.filter_map
            (fun p ->
              match lookup fresh p with
              | Some _ -> None
              | None ->
                  Some
                    (Printf.sprintf "%s: required key missing in fresh run" p))
            required
      in
      if errors <> [] then begin
        List.iter prerr_endline errors;
        fail "%s vs %s: %d check(s) failed" fresh_file baseline_file
          (List.length errors)
      end;
      Printf.printf "%s vs %s: %d path(s) agree%s%s\n" fresh_file baseline_file
        checked
        (if structure_only then " (structure only)" else "")
        (match List.length required with
        | 0 -> ""
        | n -> Printf.sprintf ", %d required key(s) present" n)
  | "--contains" :: file :: needles ->
      let body = read_file file in
      let contains needle =
        let nl = String.length needle and bl = String.length body in
        let rec go i =
          if i + nl > bl then false
          else String.sub body i nl = needle || go (i + 1)
        in
        go 0
      in
      List.iter
        (fun needle ->
          if not (contains needle) then
            fail "%s: missing expected output %S" file needle)
        needles;
      Printf.printf "%s: %d substring check(s) ok\n" file (List.length needles)
  | file :: paths when file <> "" && file.[0] <> '-' ->
      let json =
        match J.of_string (read_file file) with
        | j -> j
        | exception J.Parse_error e -> fail "%s: invalid JSON: %s" file e
      in
      List.iter
        (fun p ->
          match lookup json p with
          | Some _ -> ()
          | None -> fail "%s: missing key %s" file p)
        paths;
      Printf.printf "%s: JSON ok, %d key(s) present\n" file (List.length paths)
  | _ ->
      prerr_endline
        "usage: json_check.exe FILE key... | json_check.exe --contains FILE \
         str... | json_check.exe --compare FRESH BASELINE [--tolerance F] \
         [--percentile-tolerance F] [--structure-only] [--ignore KEY]... \
         [--require PATH]...";
      exit 1
