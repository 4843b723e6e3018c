(* A time dimension for the cumulative registry: periodic snapshots of
   every instrument, differenced into per-window samples and kept in a
   fixed-capacity ring. The sampler never touches the instruments'
   update paths beyond the same reads any reporter takes, so its
   overhead is one registry walk per period. *)

module I = Instrument

type hwindow = {
  w_count : int;
  w_sum : float;
  w_p50 : float;
  w_p90 : float;
  w_p99 : float;
}

type sample = {
  ts : float;  (** wall clock at the end of the window *)
  dur : float;  (** window length in seconds *)
  counters : (string * int) list;  (** per-window deltas, sorted by name *)
  histograms : (string * hwindow) list;
      (** per-window stats from cumulative bucket diffs, sorted by name *)
}

type t = {
  lock : Mutex.t;
  reg : Registry.t;
  ring : sample option array;
  mutable next : int;  (** ring write cursor *)
  mutable total : int;  (** samples ever taken *)
  prev_counters : (string, int) Hashtbl.t;
  prev_hists : (string, I.hsnap) Hashtbl.t;
  mutable prev_ts : float;
}

let create reg =
  {
    lock = Mutex.create ();
    reg;
    ring = Array.make 240 None;
    next = 0;
    total = 0;
    prev_counters = Hashtbl.create 32;
    prev_hists = Hashtbl.create 16;
    prev_ts = I.now_wall ();
  }

let hwindow_of_diff d =
  {
    w_count = d.I.hs_count;
    w_sum = d.I.hs_sum;
    w_p50 = I.hsnap_quantile d 0.5;
    w_p90 = I.hsnap_quantile d 0.9;
    w_p99 = I.hsnap_quantile d 0.99;
  }

let tick t =
  Mutex.protect t.lock (fun () ->
      let now = I.now_wall () in
      let counters = ref [] and hists = ref [] in
      List.iter
        (fun name ->
          match Registry.find t.reg name with
          | Some (Registry.Counter c) ->
              let v = I.value c in
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt t.prev_counters name)
              in
              Hashtbl.replace t.prev_counters name v;
              counters := (name, v - prev) :: !counters
          | Some (Registry.Histogram h) ->
              let snap = I.snapshot h in
              let prev =
                Option.value ~default:I.hsnap_empty
                  (Hashtbl.find_opt t.prev_hists name)
              in
              Hashtbl.replace t.prev_hists name snap;
              hists := (name, hwindow_of_diff (I.hsnap_diff ~prev snap)) :: !hists
          | _ -> ())
        (Registry.names t.reg);
      let s =
        {
          ts = now;
          dur = now -. t.prev_ts;
          counters = List.rev !counters;
          histograms = List.rev !hists;
        }
      in
      t.prev_ts <- now;
      t.ring.(t.next) <- Some s;
      t.next <- (t.next + 1) mod Array.length t.ring;
      t.total <- t.total + 1)

let samples t =
  Mutex.protect t.lock (fun () ->
      let n = Array.length t.ring in
      let out = ref [] in
      for k = 1 to n do
        (* walk backwards from the newest slot, collecting oldest-first *)
        match t.ring.((t.next - k + (2 * n)) mod n) with
        | Some s -> out := s :: !out
        | None -> ()
      done;
      !out)

let total t = Mutex.protect t.lock (fun () -> t.total)

let capacity t = Array.length t.ring

(* ---- sampler domain ---- *)

type sampler = { stop : bool Atomic.t; dom : unit Domain.t; tl : t }

let start ?(period = 0.05) t =
  let stop = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Unix.sleepf period;
          if not (Atomic.get stop) then tick t
        done)
  in
  { stop; dom; tl = t }

let stop s =
  Atomic.set s.stop true;
  Domain.join s.dom;
  (* one final tick so the tail of the run is never lost *)
  tick s.tl

(* ---- export ---- *)

let sample_json s =
  Json.Obj
    [
      ("ts", Json.Float s.ts);
      ("dur_s", Json.Float s.dur);
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, w) ->
               ( n,
                 Json.Obj
                   [
                     ("count", Json.Int w.w_count);
                     ("sum", Json.Float w.w_sum);
                     ("p50", Json.Float w.w_p50);
                     ("p90", Json.Float w.w_p90);
                     ("p99", Json.Float w.w_p99);
                   ] ))
             s.histograms) );
    ]

let to_json t =
  let ss = samples t in
  Json.Obj
    [
      ("capacity", Json.Int (capacity t));
      ("windows", Json.Int (total t));
      ("retained", Json.Int (List.length ss));
      ("samples", Json.List (List.map sample_json ss));
    ]
