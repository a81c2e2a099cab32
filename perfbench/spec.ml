(* The benchmark's fixed inputs: one shared cluster configuration and
   the three workloads, plus the seeded input generator.

   Every workload runs on the same configuration — the repo's most
   complete one — so the benchmark itself has no knobs. Inputs are a
   pure function of [--seed]: arrivals are drawn as a unit-rate Poisson
   stream and scaled by the offered rate, so the capacity search sees
   the same transactions, only closer together. *)

open Tabs_sim

(* Classic profile, Table 5-1 costs, lossless network, two-phase
   commit (the Cluster defaults), plus every opt-in layer. *)
let group_commit = { Tabs_recovery.Group_commit.window = 5_000; max_batch = 64 }

let checkpointing =
  { Tabs_recovery.Checkpointer.default with interval = 100_000 }

let parallel_recovery = { Tabs_recovery.Parallel_redo.fibers = 4 }

let make_cluster ~shards ?frames () =
  Tabs_core.Cluster.create ~nodes:shards ~cost_model:Cost_model.measured
    ~profile:Profile.Classic ~group_commit ~checkpointing ~parallel_recovery
    ~instant_restart:true ~comm_batching:Tabs_net.Comm_mgr.default_batching
    ~commit_protocol:Tabs_tm.Commit_protocol.Two_phase ?frames ()

(* Per-node admission bound, as in the scale-out generator. *)
let max_outstanding = 64

(* The latency limit behind [capacity_tps]: p99 over every offered
   transaction, failures counted as misses. *)
let capacity_p99_limit_us = 2_000_000


type kind = Oltp_zipf | Bank_paged | Failover

type t = {
  name : string;
  kind : kind;
  shards : int;
  keys : int;  (** int-array cells, or accounts *)
  frames : int option;  (** page frames per node; [None] = node default *)
  rate : float;  (** reference offered load, txn per virtual second *)
  horizon : int;  (** arrival window, virtual microseconds *)
  capacity_bracket : float * float;  (** capacity search range, txn/s *)
  capacity_horizon : int;  (** arrival window of each capacity-search run *)
  kill_period : int;
      (** virtual us between crashes in the crash schedule; the restart
          probe's arrivals per cycle *)
  probe_window : int;  (** restart probe's arrival window; 0 = no probe *)
}

let oltp_zipf =
  {
    name = "oltp-zipf";
    kind = Oltp_zipf;
    shards = 8;
    keys = 16_384;
    frames = None;
    rate = 15.;
    horizon = 1_200_000_000;
    capacity_bracket = (32., 48.);
    capacity_horizon = 360_000_000;
    kill_period = 1_000_000;
    probe_window = 240_000_000;
  }

let bank_paged =
  {
    name = "bank-paged";
    kind = Bank_paged;
    shards = 4;
    keys = 16_384;
    frames = Some 32;
    rate = 25.;
    horizon = 240_000_000;
    capacity_bracket = (32., 48.);
    capacity_horizon = 120_000_000;
    kill_period = 3_000_000;
    probe_window = 480_000_000;
  }

let failover =
  {
    name = "failover";
    kind = Failover;
    shards = 4;
    keys = 16_384;
    frames = None;
    rate = 20.;
    horizon = 1_920_000_000;
    capacity_bracket = (26., 42.);
    capacity_horizon = 360_000_000;
    kill_period = 30_000_000;
    probe_window = 0;
  }

let all = [ oltp_zipf; bank_paged; failover ]

let find name = List.find_opt (fun s -> s.name = name) all

let zipf_theta = 0.9

let cross_frac = 0.15

let transfer_frac = 0.7

let audit_size = 4

let initial_balance = 1_000

(* Crash schedule: shard [c mod shards] dies at
   [first_kill + c * kill_period] and restarts [restart_after] later;
   the last restart leaves at least 6 s of arrivals behind it. *)
let first_kill = 4_000_000

let restart_after = 500_000

let crash_schedule spec ~window =
  let cycles = ((window - first_kill - 6_000_000) / spec.kill_period) + 1 in
  List.init cycles (fun c -> (first_kill + (c * spec.kill_period), c mod spec.shards))

(* The reference phase's crashes within [window]: only [failover] has
   any. *)
let crashes spec ~window =
  match spec.kind with
  | Failover -> crash_schedule spec ~window
  | Oltp_zipf | Bank_paged -> []

(* [sim_txn_per_s] is the median over this many equal slices of the
   reference phase: a slice is short enough that a burst of machine
   noise spoils few of them. *)
let slices = 20

(* Shards whose time to first commit is reported one by one. *)
let reported_shards = 4

(* {2 Inputs} *)

type op =
  | Write of int list  (** int-array keys to set, home key first *)
  | Transfer of { from_ : int; to_ : int; amount : int }
  | Audit of int list  (** accounts to read *)

type arrival = { unit_at : float;  (** seconds at offered rate 1 *) op : op }

let home = function
  | Write (k :: _) | Audit (k :: _) -> k
  | Transfer { from_; _ } -> from_
  | Write [] | Audit [] -> invalid_arg "Spec.home: empty transaction"

let keys_of = function
  | Write ks | Audit ks -> ks
  | Transfer { from_; to_; _ } -> [ from_; to_ ]

let read_only = function Audit _ -> true | Write _ | Transfer _ -> false

(* Scrambled Zipf (YCSB-style): hash the popularity rank onto the
   keyspace so hot keys spread over the range-partitioned shards. *)
let scramble ~keys rank =
  let x = (rank + 1) * 0x27220A95 in
  let x = x lxor (x lsr 15) in
  let x = x * 0x2545F491 in
  let x = x lxor (x lsr 13) in
  (x land max_int) mod keys

(* Contiguous key ranges, as [Placement.partition] splits them. *)
let shard_of spec key =
  let base = spec.keys / spec.shards and extra = spec.keys mod spec.shards in
  let big = (base + 1) * extra in
  if key < big then key / (base + 1) else extra + ((key - big) / base)

(* [arrivals spec ~seed ~max_rate ~window] covers [window] at [max_rate]. *)
let arrivals spec ~seed ~max_rate ~window =
  let gaps = Rng.create ~seed:(seed * 7919 + 1)
  and ops = Rng.create ~seed:(seed * 104_729 + 2) in
  let zipf =
    match spec.kind with
    | Oltp_zipf | Failover -> Some (Rng.Zipf.create ~n:spec.keys ~theta:zipf_theta)
    | Bank_paged -> None
  in
  let zipf_key () =
    match zipf with
    | Some z -> scramble ~keys:spec.keys (Rng.Zipf.sample z ops)
    | None -> assert false
  in
  let uniform () = Rng.int ops spec.keys in
  let rec other_shard draw a tries =
    if tries = 0 then None
    else
      let b = draw () in
      if b <> a && shard_of spec b <> shard_of spec a then Some b
      else other_shard draw a (tries - 1)
  in
  let gen_op () =
    match spec.kind with
    | Oltp_zipf | Failover ->
        let a = zipf_key () in
        if Rng.bool ops ~p:cross_frac then
          match other_shard zipf_key a 32 with
          | Some b -> Write [ a; b ]
          | None -> Write [ a ]
        else Write [ a ]
    | Bank_paged ->
        if Rng.bool ops ~p:transfer_frac then begin
          let from_ = uniform () in
          let rec to_ () = match uniform () with k when k = from_ -> to_ () | k -> k in
          Transfer { from_; to_ = to_ (); amount = 1 + Rng.int ops 10 }
        end
        else Audit (List.init audit_size (fun _ -> uniform ()))
  in
  let limit = float_of_int window /. 1e6 *. max_rate in
  let rec go t acc =
    let t = t -. log (1. -. Rng.float gaps) in
    if t >= limit then Array.of_list (List.rev acc)
    else go t ({ unit_at = t; op = gen_op () } :: acc)
  in
  go 0. []

(* Arrival offsets (virtual us) of the transactions offered at [rate]. *)
let offsets ~horizon (arrivals : arrival array) ~rate =
  let horizon = float_of_int horizon in
  let rec count i =
    if i < Array.length arrivals && arrivals.(i).unit_at /. rate *. 1e6 < horizon
    then count (i + 1)
    else i
  in
  Array.init (count 0) (fun i ->
      max 1 (int_of_float (arrivals.(i).unit_at /. rate *. 1e6)))
