type instrument =
  | Counter of Instrument.counter
  | Timer of Instrument.timer
  | Histogram of Instrument.histogram

type t = {
  lock : Mutex.t;
      (** guards [instruments]: instrument *creation* is rare (first use of
          a name) but may race across domains; the instruments themselves
          are domain-safe and are updated without this lock *)
  instruments : (string, instrument) Hashtbl.t;
}

exception Kind_mismatch of string

let create () = { lock = Mutex.create (); instruments = Hashtbl.create 32 }

let global = create ()

let kind_name = function
  | Counter _ -> "counter"
  | Timer _ -> "timer"
  | Histogram _ -> "histogram"

let get_or_create t name ~make ~cast =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.instruments name with
      | Some i -> (
          match cast i with
          | Some x -> x
          | None ->
              raise
                (Kind_mismatch
                   (Printf.sprintf "%s already registered as a %s" name
                      (kind_name i))))
      | None ->
          let i = make () in
          Hashtbl.replace t.instruments name i;
          (match cast i with Some x -> x | None -> assert false))

let counter t name =
  get_or_create t name
    ~make:(fun () -> Counter (Instrument.counter ()))
    ~cast:(function Counter c -> Some c | _ -> None)

let timer t name =
  get_or_create t name
    ~make:(fun () -> Timer (Instrument.timer ()))
    ~cast:(function Timer x -> Some x | _ -> None)

let histogram t name =
  get_or_create t name
    ~make:(fun () -> Histogram (Instrument.histogram ()))
    ~cast:(function Histogram h -> Some h | _ -> None)

let find t name =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.instruments name)

let names t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.instruments [])
  |> List.sort String.compare

let counter_value t name =
  match find t name with Some (Counter c) -> Instrument.value c | _ -> 0

let reset t =
  let all =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun _ i acc -> i :: acc) t.instruments [])
  in
  List.iter
    (fun i ->
      match i with
      | Counter c -> Instrument.reset_counter c
      | Timer x -> Instrument.reset_timer x
      | Histogram h -> Instrument.reset_histogram h)
    all

(* ---- snapshots ---- *)

let finite_or_null f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    Json.Null
  else Json.Float f

let instrument_json = function
  | Counter c -> Json.Int (Instrument.value c)
  | Timer x ->
      Json.Obj
        [
          ("wall_s", Json.Float (Instrument.wall x));
          ("cpu_s", Json.Float (Instrument.cpu x));
          ("intervals", Json.Int (Instrument.intervals x));
        ]
  | Histogram h ->
      Json.Obj
        [
          ("count", Json.Int (Instrument.count h));
          ("sum", Json.Float (Instrument.sum h));
          ("mean", Json.Float (Instrument.mean h));
          ("min", finite_or_null (Instrument.min_value h));
          ("max", finite_or_null (Instrument.max_value h));
          ("p50", Json.Float (Instrument.quantile h 0.5));
          ("p90", Json.Float (Instrument.quantile h 0.9));
          ("p95", Json.Float (Instrument.quantile h 0.95));
          ("p99", Json.Float (Instrument.quantile h 0.99));
        ]

let to_json t =
  let section keep =
    List.filter_map
      (fun name ->
        match find t name with
        | Some i when keep i -> Some (name, instrument_json i)
        | _ -> None)
      (names t)
  in
  Json.Obj
    [
      ("counters", Json.Obj (section (function Counter _ -> true | _ -> false)));
      ("timers", Json.Obj (section (function Timer _ -> true | _ -> false)));
      ( "histograms",
        Json.Obj (section (function Histogram _ -> true | _ -> false)) );
    ]

let render t =
  let b = Buffer.create 512 in
  let width =
    List.fold_left (fun acc n -> max acc (String.length n)) 24 (names t)
  in
  let line name rest = Printf.bprintf b "  %-*s  %s\n" width name rest in
  Buffer.add_string b "metrics:\n";
  List.iter
    (fun name ->
      match find t name with
      | None -> ()
      | Some (Counter c) -> line name (string_of_int (Instrument.value c))
      | Some (Timer x) ->
          line name
            (Printf.sprintf "wall %.6fs  cpu %.6fs  (%d intervals)"
               (Instrument.wall x) (Instrument.cpu x) (Instrument.intervals x))
      | Some (Histogram h) ->
          line name
            (if Instrument.count h = 0 then "empty"
             else
               Printf.sprintf
                 "count %d  sum %.3f  mean %.3f  min %.3f  max %.3f  p50<=%.3g"
                 (Instrument.count h) (Instrument.sum h) (Instrument.mean h)
                 (Instrument.min_value h) (Instrument.max_value h)
                 (Instrument.quantile h 0.5)))
    (names t);
  Buffer.contents b
