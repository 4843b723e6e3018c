(** Deterministic TPC-H-style data generator.

    Cardinalities follow the TPC-H ratios, scaled down by the [scale]
    parameter (scale 1 is a few hundred rows — enough to exercise every
    code path while keeping tests fast). All foreign keys are valid by
    construction; comments embed searchable substrings so LIKE predicates
    select non-trivial subsets. *)

open Mv_base
module Prng = Mv_util.Prng

let date_lo = Option.get (Date.of_string "1992-01-01")
let date_hi = Option.get (Date.of_string "1998-12-31")

let words =
  [|
    "steel"; "copper"; "brass"; "linen"; "silk"; "ivory"; "amber"; "azure";
    "coral"; "olive"; "plum"; "wheat"; "snow"; "mint"; "rose"; "navy";
  |]

let word rng = words.(Prng.int rng (Array.length words))

let comment rng =
  Printf.sprintf "%s %s %s" (word rng) (word rng) (word rng)

let segments = [| "BUILDING"; "AUTOMOBILE"; "MACHINERY"; "HOUSEHOLD"; "FURNITURE" |]
let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]
let shipmodes = [| "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB"; "REG AIR" |]
let instructs = [| "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" |]
let containers = [| "SM CASE"; "LG BOX"; "MED BAG"; "JUMBO JAR"; "WRAP PACK" |]
let types_ = [| "ECONOMY ANODIZED"; "STANDARD POLISHED"; "PROMO BURNISHED"; "SMALL PLATED" |]
let nations_ =
  [|
    "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA"; "FRANCE";
    "GERMANY"; "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN"; "JORDAN";
    "KENYA"; "MOROCCO"; "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA";
    "SAUDI ARABIA"; "VIETNAM"; "RUSSIA"; "UNITED KINGDOM"; "UNITED STATES";
  |]
let regions_ = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

type counts = {
  suppliers : int;
  parts : int;
  customers : int;
  orders : int;
}

let counts_of_scale scale =
  {
    suppliers = max 5 (10 * scale);
    parts = max 10 (40 * scale);
    customers = 30 * scale;
    orders = 90 * scale;
  }

let i x = Value.Int x
let s x = Value.Str x
let d x = Value.Date x

let generate ?(seed = 42) ?(scale = 1) () : Mv_engine.Database.t =
  let rng = Prng.create seed in
  let db = Mv_engine.Database.create Schema.schema in
  let c = counts_of_scale scale in
  (* each table's rows are collected newest first and written as one
     batch, which conses them on in generation order: the table holds
     them newest first *)
  let write name newest_first =
    Mv_engine.Database.write db
      [ (name, { Mv_engine.Database.ins = List.rev newest_first; del = [] }) ]
  in
  let rows = ref [] in
  let add row = rows := row :: !rows in
  let flush name =
    write name !rows;
    rows := []
  in
  (* region *)
  Array.iteri
    (fun k name -> add [| i k; s name; s (comment rng) |])
    regions_;
  flush "region";
  (* nation *)
  Array.iteri
    (fun k name ->
      add
        [| i k; s name; i (Prng.int rng (Array.length regions_)); s (comment rng) |])
    nations_;
  flush "nation";
  (* supplier *)
  for k = 1 to c.suppliers do
    add
      [|
        i k;
        s (Printf.sprintf "Supplier#%04d" k);
        s (comment rng);
        i (Prng.int rng (Array.length nations_));
        s (Printf.sprintf "27-%03d-%04d" (Prng.int rng 1000) (Prng.int rng 10000));
        i (Prng.int_range rng (-99999) 999999);
        s (comment rng);
      |]
  done;
  flush "supplier";
  (* customer *)
  for k = 1 to c.customers do
    add
      [|
        i k;
        s (Printf.sprintf "Customer#%06d" k);
        s (comment rng);
        i (Prng.int rng (Array.length nations_));
        s (Printf.sprintf "13-%03d-%04d" (Prng.int rng 1000) (Prng.int rng 10000));
        i (Prng.int_range rng (-99999) 999999);
        s (Prng.pick rng (Array.to_list segments));
        s (comment rng);
      |]
  done;
  flush "customer";
  (* part *)
  for k = 1 to c.parts do
    add
      [|
        i k;
        s (Printf.sprintf "%s %s part" (word rng) (word rng));
        s (Printf.sprintf "Manufacturer#%d" (1 + Prng.int rng 5));
        s (Printf.sprintf "Brand#%d%d" (1 + Prng.int rng 5) (1 + Prng.int rng 5));
        s (Prng.pick rng (Array.to_list types_));
        i (1 + Prng.int rng 50);
        s (Prng.pick rng (Array.to_list containers));
        i (90000 + Prng.int rng 120000);
        s (comment rng);
      |]
  done;
  flush "part";
  (* partsupp: 2 suppliers per part, distinct *)
  for pk = 1 to c.parts do
    let s1 = 1 + Prng.int rng c.suppliers in
    let s2 = 1 + ((s1 + Prng.int rng (c.suppliers - 1)) mod c.suppliers) in
    List.iter
      (fun sk ->
        add
          [|
            i pk; i sk;
            i (1 + Prng.int rng 9999);
            i (100 + Prng.int rng 99900);
            s (comment rng);
          |])
      (List.sort_uniq compare [ s1; s2 ])
  done;
  (* written before lineitem draws its suppliers from it *)
  flush "partsupp";
  (* orders and lineitem, generated together *)
  let orders = ref [] in
  let line_count = ref 0 in
  for ok = 1 to c.orders do
    let odate = Prng.int_range rng date_lo (date_hi - 180) in
    orders :=
      [|
        i ok;
        i (1 + Prng.int rng c.customers);
        s (Prng.pick rng [ "O"; "F"; "P" ]);
        i (1000 + Prng.int rng 500000);
        d odate;
        s (Prng.pick rng (Array.to_list priorities));
        s (Printf.sprintf "Clerk#%05d" (Prng.int rng 1000));
        i 0;
        s (comment rng);
      |]
      :: !orders;
    let nlines = 1 + Prng.int rng 7 in
    for ln = 1 to nlines do
      incr line_count;
      let pk = 1 + Prng.int rng c.parts in
      (* pick a supplier actually supplying this part so the composite
         (l_partkey, l_suppkey) -> partsupp FK holds *)
      let ps_tbl = Mv_engine.Database.table_exn db "partsupp" in
      let candidates =
        List.filter_map
          (fun row ->
            match (row.(0), row.(1)) with
            | Value.Int p, Value.Int sk when p = pk -> Some sk
            | _ -> None)
          ps_tbl.Mv_engine.Table.rows
      in
      let sk = Prng.pick rng candidates in
      let qty = 1 + Prng.int rng 50 in
      let ship = odate + 1 + Prng.int rng 120 in
      add
        [|
          i ok; i pk; i sk; i ln;
          i qty;
          i (qty * (900 + Prng.int rng 1200));
          i (Prng.int rng 11);
          i (Prng.int rng 9);
          s (Prng.pick rng [ "R"; "A"; "N" ]);
          s (Prng.pick rng [ "O"; "F" ]);
          d ship;
          d (ship + Prng.int rng 30);
          d (ship + 1 + Prng.int rng 30);
          s (Prng.pick rng (Array.to_list instructs));
          s (Prng.pick rng (Array.to_list shipmodes));
          s (comment rng);
        |]
    done
  done;
  write "orders" !orders;
  flush "lineitem";
  db

(* Analytic statistics matching TPC-H at scale factor [sf] without
   materializing any data — the paper's experiments run against SF 0.5 and
   note the scale factor does not affect optimization time, so benches use
   these statistics directly. *)
let synthetic_stats ?(sf = 0.5) () : Mv_catalog.Stats.t =
  let n x = int_of_float (float_of_int x *. sf) in
  let mk ~min_v ~max_v ~ndv =
    Mv_catalog.Stats.built (Mv_catalog.Stats.make_col ~min_v ~max_v ~ndv ())
  in
  let key_col name count =
    (name, mk ~min_v:(Value.Int 1) ~max_v:(Value.Int count) ~ndv:count)
  in
  let int_col name lo hi ndv =
    (name, mk ~min_v:(Value.Int lo) ~max_v:(Value.Int hi) ~ndv)
  in
  let date_col name =
    (name,
     mk ~min_v:(Value.Date date_lo) ~max_v:(Value.Date date_hi)
       ~ndv:(date_hi - date_lo))
  in
  let str_col name ndv =
    (name, mk ~min_v:(Value.Str "A") ~max_v:(Value.Str "z") ~ndv)
  in
  let customers = n 150_000
  and orders = n 1_500_000
  and lineitems = n 6_000_000
  and parts = n 200_000
  and suppliers = n 10_000
  and partsupps = n 800_000 in
  Mv_catalog.Stats.of_list [
    ("region", { Mv_catalog.Stats.row_count = 5;
                 columns = [ int_col "r_regionkey" 0 4 5; str_col "r_name" 5; str_col "r_comment" 5 ] });
    ("nation", { Mv_catalog.Stats.row_count = 25;
                 columns = [ int_col "n_nationkey" 0 24 25; str_col "n_name" 25;
                             int_col "n_regionkey" 0 4 5; str_col "n_comment" 25 ] });
    ("supplier", { Mv_catalog.Stats.row_count = suppliers;
                   columns = [ key_col "s_suppkey" suppliers; str_col "s_name" suppliers;
                               str_col "s_address" suppliers; int_col "s_nationkey" 0 24 25;
                               str_col "s_phone" suppliers;
                               int_col "s_acctbal" (-99999) 999999 suppliers;
                               str_col "s_comment" suppliers ] });
    ("customer", { Mv_catalog.Stats.row_count = customers;
                   columns = [ key_col "c_custkey" customers; str_col "c_name" customers;
                               str_col "c_address" customers; int_col "c_nationkey" 0 24 25;
                               str_col "c_phone" customers;
                               int_col "c_acctbal" (-99999) 999999 customers;
                               str_col "c_mktsegment" 5; str_col "c_comment" customers ] });
    ("part", { Mv_catalog.Stats.row_count = parts;
               columns = [ key_col "p_partkey" parts; str_col "p_name" parts;
                           str_col "p_mfgr" 5; str_col "p_brand" 25; str_col "p_type" 150;
                           int_col "p_size" 1 50 50; str_col "p_container" 40;
                           int_col "p_retailprice" 90000 210000 120000;
                           str_col "p_comment" parts ] });
    ("partsupp", { Mv_catalog.Stats.row_count = partsupps;
                   columns = [ key_col "ps_partkey" parts; key_col "ps_suppkey" suppliers;
                               int_col "ps_availqty" 1 9999 9999;
                               int_col "ps_supplycost" 100 100000 99900;
                               str_col "ps_comment" partsupps ] });
    ("orders", { Mv_catalog.Stats.row_count = orders;
                 columns = [ key_col "o_orderkey" orders; key_col "o_custkey" customers;
                             str_col "o_orderstatus" 3;
                             int_col "o_totalprice" 1000 501000 orders;
                             date_col "o_orderdate"; str_col "o_orderpriority" 5;
                             str_col "o_clerk" 1000; int_col "o_shippriority" 0 0 1;
                             str_col "o_comment" orders ] });
    ("lineitem", { Mv_catalog.Stats.row_count = lineitems;
                   columns = [ key_col "l_orderkey" orders; key_col "l_partkey" parts;
                               key_col "l_suppkey" suppliers;
                               int_col "l_linenumber" 1 7 7;
                               int_col "l_quantity" 1 50 50;
                               int_col "l_extendedprice" 900 105000 60000;
                               int_col "l_discount" 0 10 11; int_col "l_tax" 0 8 9;
                               str_col "l_returnflag" 3; str_col "l_linestatus" 2;
                               date_col "l_shipdate"; date_col "l_commitdate";
                               date_col "l_receiptdate"; str_col "l_shipinstruct" 4;
                               str_col "l_shipmode" 7; str_col "l_comment" lineitems ] });
  ]
