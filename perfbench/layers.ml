(* Per-layer metrics, read from outside: the modules' public counters,
   the benchmark's own timings of its calls, and the trace recorded by
   [Tabs_obs.Recorder]. Each metric is a (name, unit, value). *)

open Tabs_sim
open Tabs_core
module Hist = Tabs_obs.Hist

(* {2 Counter snapshots} *)

type counters = {
  events : int;
  minor_words : float;
  prims : Metrics.t;
  wire : int;
  frames : int;
  vm_faults : int;
  pages_written : int;
  lock_timeouts : int;
  ondemand : int;
  trickle : int;
}

(* Taken only while every node is up. *)
let counters (r : Drive.t) =
  let nodes = Cluster.nodes r.d.cluster in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  let m = Engine.metrics r.d.engine in
  let msgs = Metrics.msgs m in
  let rec_sum f = sum (fun n -> f (Metrics.recovery m ~node:(Node.id n))) in
  {
    events = Engine.events_processed r.d.engine;
    minor_words = Gc.minor_words ();
    prims = Metrics.snapshot m;
    wire = msgs.wire_messages;
    frames = msgs.carried_frames;
    vm_faults = r.carried.vm_faults + sum (fun n -> Tabs_accent.Vm.faults (Node.vm n));
    pages_written = sum (fun n -> Tabs_storage.Disk.pages_written (Node.disk n));
    lock_timeouts =
      Array.fold_left
        (fun acc s -> acc + Tabs_lock.Lock_manager.timeouts (Server_lib.lock_manager s))
        r.carried.lock_timeouts r.d.servers;
    ondemand = rec_sum (fun c -> c.Metrics.ondemand_pages);
    trickle = rec_sum (fun c -> c.Metrics.trickle_pages);
  }

(* {2 Trace tallies} *)

type tally = {
  mutable gc_batches : int;
  mutable gc_batched : int;
  mutable forces : int;
  mutable force_bytes : int;
  mutable appends : int;
  mutable deps : int;
  mutable retransmits : int;
  mutable checkpoints : int;
  prepare_to_verdict : Hist.t;
}

let tally entries =
  let t =
    { gc_batches = 0; gc_batched = 0; forces = 0; force_bytes = 0; appends = 0; deps = 0;
      retransmits = 0; checkpoints = 0; prepare_to_verdict = Hist.create () }
  in
  let prepared = Hashtbl.create 256 in
  List.iter
    (fun ({ time; event } : Tabs_obs.Recorder.entry) ->
      match event with
      | Tabs_recovery.Group_commit.Group_commit { batch; _ } ->
          t.gc_batches <- t.gc_batches + 1;
          t.gc_batched <- t.gc_batched + batch
      | Tabs_wal.Log_manager.Log_force { bytes; _ } ->
          t.forces <- t.forces + 1;
          t.force_bytes <- t.force_bytes + bytes
      | Tabs_wal.Log_manager.Wal_append { kind; _ } ->
          t.appends <- t.appends + 1;
          if kind = "dependency" then t.deps <- t.deps + 1
      | Tabs_net.Comm_mgr.Session_retransmit _ -> t.retransmits <- t.retransmits + 1
      | Tabs_recovery.Recovery_mgr.Rm_checkpoint _ -> t.checkpoints <- t.checkpoints + 1
      | Tabs_tm.Txn_mgr.Prepare_sent { node; tid; _ } ->
          if not (Hashtbl.mem prepared (node, tid)) then Hashtbl.add prepared (node, tid) time
      | Tabs_tm.Txn_mgr.Verdict_sent { node; tid; _ } -> (
          match Hashtbl.find_opt prepared (node, tid) with
          | Some t0 ->
              Hist.add t.prepare_to_verdict (time - t0);
              Hashtbl.remove prepared (node, tid)
          | None -> ())
      | _ -> ())
    entries;
  t

(* {2 Workload properties, from the generated inputs} *)

type gen = {
  cross_pct : float;
  read_pct : float;
  hot_key_pct : float;
  keys_per_server : float;
  ws_pages_per_frame : float;
  table_entries : float;
}

let pages_per_key = 64 (* 8-byte cells and account slots, 512-byte pages *)

let gen (spec : Spec.t) (arrivals : Spec.arrival array) ~offsets =
  let n = Array.length offsets in
  let pct k = 100. *. float_of_int k /. float_of_int (max 1 n) in
  let cross = ref 0 and reads = ref 0 in
  let uses = Hashtbl.create 4096 in
  let per_shard = Array.init spec.shards (fun _ -> Hashtbl.create 1024) in
  let pages = Array.init spec.shards (fun _ -> Hashtbl.create 256) in
  for i = 0 to n - 1 do
    let op = arrivals.(i).op in
    let keys = Spec.keys_of op in
    let shards = List.sort_uniq compare (List.map (Spec.shard_of spec) keys) in
    if List.length shards > 1 then incr cross;
    if Spec.read_only op then incr reads;
    List.iter
      (fun k ->
        Hashtbl.replace uses k (1 + Option.value ~default:0 (Hashtbl.find_opt uses k));
        let s = Spec.shard_of spec k in
        Hashtbl.replace per_shard.(s) k ();
        Hashtbl.replace pages.(s) (k / pages_per_key) ())
      (List.sort_uniq compare keys)
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) uses 0 in
  let mean f =
    Array.fold_left (fun acc h -> acc +. float_of_int (f h)) 0. per_shard
    /. float_of_int spec.shards
  in
  let keys_per_server = mean Hashtbl.length in
  let frames = float_of_int (Option.value ~default:1500 spec.frames) in
  let ws =
    Array.fold_left (fun acc h -> acc +. float_of_int (Hashtbl.length h)) 0. pages
    /. float_of_int spec.shards
  in
  {
    cross_pct = pct !cross;
    read_pct = pct !reads;
    hot_key_pct = pct hottest;
    keys_per_server;
    ws_pages_per_frame = ws /. frames;
    (* the lock table never drops an entry, and the pre-load locks
       every key *)
    table_entries = float_of_int (spec.keys / spec.shards);
  }

(* {2 The metric list} *)

let prim_name p =
  String.concat ""
    (List.map
       (fun c -> match c with ' ' | '-' -> "_" | '/' -> "" | c -> String.make 1 (Char.lowercase_ascii c))
       (List.of_seq (String.to_seq (Cost_model.name p))))

let per_txn_over n x = if n = 0 then 0. else x /. float_of_int n

let mean_int = function
  | [] -> 0.
  | xs -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

type micro = {
  dispatch : Micro.summary;
  switch : Micro.summary;
  release : Micro.summary;
  append : Micro.summary;
  fault_small : Micro.summary;
  fault_large : Micro.summary;
}

let micro ~table_entries =
  {
    dispatch = Micro.dispatch_ns ();
    switch = Micro.switch_ns ();
    release = Micro.release_us ~entries:(max 1 (int_of_float (Float.round table_entries)));
    append = Micro.append_ns ();
    fault_small = Micro.fault_ns ~frames:128;
    fault_large = Micro.fault_ns ~frames:1500;
  }

let metrics ~(st : Drive.stats) ~before ~after ~final ~untraced_minor_words ~ref_entries
    ~(restarts : Drive.restart list) ~(g : gen) ~(mi : micro) ~overhead_pct =
  let committed = st.committed in
  let per_txn x = per_txn_over committed x in
  let t = tally ref_entries in
  let spans = Tabs_obs.Span.of_entries ref_entries in
  let lock_wait = List.fold_left (fun acc (s : Tabs_obs.Span.t) -> acc + s.lock_wait) 0 spans in
  let prims = Metrics.diff ~later:after.prims ~earlier:before.prims in
  let cost = Cost_model.measured in
  let nrestarts = List.length restarts in
  let shard_ttfc k =
    mean_int
      (List.filter_map
         (fun (rs : Drive.restart) -> if rs.r_shard = k then rs.r_ttfc_us else None)
         restarts)
    /. 1000.
  in
  let micro name unit (s : Micro.summary) =
    [ (name, unit, s.median); (name ^ ".min", unit, s.min); (name ^ ".max", unit, s.max) ]
  in
  let f = float_of_int in
  List.concat
    [
      [
        ("sim.events_per_txn", "events", per_txn (f (after.events - before.events)));
        ("sim.minor_words_per_txn", "words", per_txn untraced_minor_words);
      ];
      micro "sim.dispatch_ns" "ns" mi.dispatch;
      micro "sim.switch_ns" "ns" mi.switch;
      [
        ("core.op_us.p50", "us", f (Hist.p50 st.op_us));
        ("core.op_us.p99", "us", f (Hist.p99 st.op_us));
        ("lock.wait_us_per_txn", "us", per_txn (f lock_wait));
        ( "lock.timeout_pct", "%",
          100. *. f (after.lock_timeouts - before.lock_timeouts) /. f (max 1 st.attempts) );
        ("lock.table_entries", "count", g.table_entries);
      ];
      micro "lock.release_us" "us" mi.release;
      [
        ("tm.begin_us.p50", "us", f (Hist.p50 st.begin_us));
        ("tm.commit_us.local.p50", "us", f (Hist.p50 st.commit_local_us));
        ("tm.commit_us.dist.p50", "us", f (Hist.p50 st.commit_dist_us));
        ("tm.commit_us.dist.p99", "us", f (Hist.p99 st.commit_dist_us));
        ("tm.prepare_to_verdict_us.p50", "us", f (Hist.p50 t.prepare_to_verdict));
        ("recovery.gc_batch_mean", "count", per_txn_over t.gc_batches (f t.gc_batched));
        ("wal.forces_per_commit", "count", per_txn (f t.forces));
        ("wal.records_per_txn", "records", per_txn (f t.appends));
        ("wal.bytes_per_txn", "bytes", per_txn (f t.force_bytes));
        ("wal.deps_per_txn", "records", per_txn (f t.deps));
      ];
      micro "wal.append_ns" "ns" mi.append;
      [
        ("recovery.open_us", "us", mean_int (List.map (fun (rs : Drive.restart) -> rs.r_open_us) restarts));
        ( "recovery.scanned_records", "records",
          mean_int (List.map (fun (rs : Drive.restart) -> rs.r_scanned) restarts) );
        ( "recovery.open_to_first_commit_us", "us",
          mean_int
            (List.filter_map
               (fun (rs : Drive.restart) -> Option.map (fun t -> t - rs.r_open_us) rs.r_ttfc_us)
               restarts) );
        ("recovery.ondemand_pages", "pages", per_txn_over nrestarts (f (final.ondemand - before.ondemand)));
        ("recovery.trickle_pages", "pages", per_txn_over nrestarts (f (final.trickle - before.trickle)));
        ("recovery.checkpoints", "count", f t.checkpoints);
        ( "wal.live_records_at_crash", "records",
          mean_int (List.map (fun (rs : Drive.restart) -> rs.r_live_records) restarts) );
      ];
      List.init Spec.reported_shards (fun k ->
          (Printf.sprintf "recovery.ttfc_ms.shard%d" k, "ms", shard_ttfc k));
      [
        ( "net.wire_msgs_per_dist_commit", "count",
          per_txn_over st.cross_committed (f (after.wire - before.wire)) );
        ( "net.frames_per_msg", "count",
          per_txn_over (after.wire - before.wire) (f (after.frames - before.frames)) );
        ("net.retransmits", "count", f t.retransmits);
        ("accent.faults_per_txn", "count", per_txn (f (after.vm_faults - before.vm_faults)));
        ( "accent.hit_pct", "%",
          Float.max 0.
            (100. *. (1. -. (f (after.vm_faults - before.vm_faults) /. f (max 1 st.page_touches)))) );
        ( "storage.pages_written_per_txn", "pages",
          per_txn (f (after.pages_written - before.pages_written)) );
      ];
      micro "accent.fault_ns.f128" "ns" mi.fault_small;
      micro "accent.fault_ns.f1500" "ns" mi.fault_large;
      List.map
        (fun p ->
          ( Printf.sprintf "prim.%s_us_per_txn" (prim_name p), "us",
            per_txn (Metrics.weight prims p *. f (Cost_model.cost cost p)) ))
        Cost_model.all;
      [
        ("gen.cross_pct", "%", g.cross_pct);
        ("gen.read_pct", "%", g.read_pct);
        ("gen.hot_key_pct", "%", g.hot_key_pct);
        ("gen.shed_pct", "%", 100. *. f st.shed /. f (max 1 st.offered));
        ("gen.keys_per_server", "count", g.keys_per_server);
        ("gen.ws_pages_per_frame", "ratio", g.ws_pages_per_frame);
        ("obs.trace_overhead_pct", "%", overhead_pct);
        ("fail_pct", "%", 100. *. f (st.offered - st.first_try) /. f (max 1 st.offered));
        ("commit_p50_ms", "ms", f (Hist.p50 st.latency) /. 1000.);
      ];
    ]
