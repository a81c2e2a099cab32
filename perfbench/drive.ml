(* One run of a workload on a fresh cluster: set-up, the open-loop
   client, the crash schedule, the restart probe, and the oracles.

   The client calls the public API directly — [Txn_mgr.begin_txn], the
   [Sharded] operations, [Txn_mgr.commit], [Node.restart] — and mirrors
   [Txn_lib.execute_transaction]'s abort handling, so it can time each
   call on the virtual clock. Reading the clock is observational: a run
   with tracing on must produce exactly the same virtual-time results. *)

open Tabs_sim
open Tabs_core
open Tabs_servers
module Hist = Tabs_obs.Hist

type data = Cells of Sharded.Int_array.t | Accounts of Sharded.Accounts.t

type deployment = {
  spec : Spec.t;
  cluster : Cluster.t;
  engine : Engine.t;
  data : data;
  servers : Server_lib.t array;  (** the live instance of each shard *)
}

let cell_space = "k"

let account_space = "acct"

let locate d key =
  match d.data with
  | Cells a -> Sharded.Int_array.locate a key
  | Accounts a -> Sharded.Accounts.locate a key

(* [Sharded.Accounts] has no reinstall; this rebuilds one shard's slice
   exactly as [Sharded.Accounts.deploy] laid it out. *)
let reinstall d ~shard (env : Server_lib.env) =
  match d.data with
  | Cells a ->
      d.servers.(shard) <-
        Int_array_server.server (Sharded.Int_array.reinstall a ~shard env)
  | Accounts _ ->
      let placement = Cluster.placement d.cluster in
      let lo, hi =
        match
          List.find_opt
            (fun (s, _, _) -> s = shard)
            (Placement.ranges placement ~server:account_space)
        with
        | Some (_, lo, hi) -> (lo, hi)
        | None -> invalid_arg "reinstall: unknown shard"
      in
      Placement.publish placement env.ns ~server:account_space
        ~only_node:(Some env.node);
      d.servers.(shard) <-
        Account_server.server
          (Account_server.create env
             ~name:(Placement.instance_name placement ~server:account_space ~shard)
             ~segment:(1 + shard)
             ~accounts:(max 1 (hi - lo))
             ())

(* The value pre-loaded into cell [k]; negative, so it never equals a
   value a benchmark transaction writes. *)
let preload_value k = -(k + 1)

(* Pre-load every key — the opening balance into each account, the
   initial value into each cell — one transaction per page-sized chunk,
   all shards in parallel. *)
let preload d =
  let per_txn = 64 in
  let loaded = ref 0 in
  let space, write =
    match d.data with
    | Accounts a ->
        (account_space, fun rpc tid k -> Sharded.Accounts.deposit a rpc tid k Spec.initial_balance)
    | Cells a -> (cell_space, fun rpc tid k -> Sharded.Int_array.set a rpc tid k (preload_value k))
  in
  List.iter
    (fun (shard, lo, hi) ->
      let node = Cluster.shard_node d.cluster shard in
      Cluster.spawn d.cluster ~node:(Node.id node) (fun () ->
          let tm = Node.tm node and rpc = Node.rpc node in
          let lo = ref lo in
          while !lo < hi do
            let first = !lo and last = min hi (!lo + per_txn) in
            Txn_lib.execute_transaction tm (fun tid ->
                for k = first to last - 1 do
                  write rpc tid k
                done);
            loaded := !loaded + (last - first);
            lo := last
          done))
    (Placement.ranges (Cluster.placement d.cluster) ~server:space);
  (* the daemons never let the simulation go quiet: step the clock *)
  let rec step n =
    if !loaded < d.spec.keys && n > 0 then begin
      Cluster.run_until d.cluster ~time:(Engine.now d.engine + 10_000_000);
      step (n - 1)
    end
  in
  step 100_000;
  if !loaded <> d.spec.keys then failwith "set-up: pre-load did not finish"

let setup (spec : Spec.t) =
  let cluster = Spec.make_cluster ~shards:spec.shards ?frames:spec.frames () in
  let data, servers =
    match spec.kind with
    | Bank_paged ->
        let a =
          Sharded.Accounts.deploy cluster ~name:account_space ~accounts:spec.keys ()
        in
        (Accounts a, List.map (fun (_, s) -> Account_server.server s) (Sharded.Accounts.instances a))
    | Oltp_zipf | Failover ->
        let a = Sharded.Int_array.deploy cluster ~name:cell_space ~keys:spec.keys () in
        (Cells a, List.map (fun (_, s) -> Int_array_server.server s) (Sharded.Int_array.instances a))
  in
  let d =
    { spec; cluster; engine = Cluster.engine cluster; data; servers = Array.of_list servers }
  in
  preload d;
  d

(* {2 Run state} *)

(* One write's fate, for the durability oracle. [at] is when the set
   returned holding the write lock: the lock is held until the verdict,
   so [at] orders conflicting committed writes as they serialized. *)
type write_status = Pending | Acked | Undone

type write = { at : int; value : int; mutable status : write_status }

type attempt = {
  aid : int;
  op : Spec.op;
  mutable began : int;  (** virtual time this attempt began *)
  tries : int;
  gateway : int;
  mutable dead : bool;  (** its node crashed under it *)
  mutable writes : (int * write) list;
}

(* A restart: a failover crash cycle or a post-drain probe. *)
type restart = {
  r_shard : int;
  r_live_records : int;  (** live log records on the victim at the crash *)
  r_crash : int;
  r_start : int;
  mutable r_open_us : int;
  mutable r_scanned : int;
  mutable r_ttfc_us : int option;
}

type stats = {
  mutable offered : int;
  mutable shed : int;
  mutable attempts : int;
  mutable committed : int;  (** transactions, counting retried ones once *)
  mutable first_try : int;  (** committed on their first attempt *)
  mutable aborted : int;  (** attempts *)
  mutable killed : int;  (** attempts lost with a crashed node *)
  mutable gave_up : int;  (** transactions never committed *)
  mutable cross_committed : int;
  mutable unexpected : string list;
  latency : Hist.t;  (** begin -> commit of the committed attempts *)
  begin_us : Hist.t;
  op_us : Hist.t;
  commit_local_us : Hist.t;
  commit_dist_us : Hist.t;
  mutable page_touches : int;  (** pages named by the operations issued *)
}

let new_stats () =
  {
    offered = 0; shed = 0; attempts = 0; committed = 0; first_try = 0;
    aborted = 0; killed = 0; gave_up = 0; cross_committed = 0; unexpected = [];
    latency = Hist.create (); begin_us = Hist.create (); op_us = Hist.create ();
    commit_local_us = Hist.create (); commit_dist_us = Hist.create ();
    page_touches = 0;
  }

(* Counters that die with a node's volatile half, folded in at each
   crash so totals survive restarts. *)
type carried = { mutable vm_faults : int; mutable lock_timeouts : int }

type t = {
  d : deployment;
  mutable st : stats;
  mutable retry : bool;
  outstanding : int array;
  inflight : (int, attempt) Hashtbl.t;
  parked : attempt Queue.t array;  (** offered while the node was down *)
  history : (int, write list) Hashtbl.t;  (** cell key -> writes, newest first *)
  wounded : restart option array;  (** per shard: awaiting first commit *)
  mutable restarts : restart list;
  mutable next_aid : int;
  carried : carried;
}

let max_tries = 100

let retry_backoff = 100_000

let create d ~retry =
  let n = Cluster.node_count d.cluster in
  {
    d; st = new_stats (); retry;
    outstanding = Array.make n 0;
    inflight = Hashtbl.create 256;
    parked = Array.init n (fun _ -> Queue.create ());
    history = Hashtbl.create 4096;
    wounded = Array.make d.spec.shards None;
    restarts = []; next_aid = 0;
    carried = { vm_faults = 0; lock_timeouts = 0 };
  }

let now r = Engine.now r.d.engine

let timed r h f =
  let t0 = now r in
  let v = f () in
  Hist.add h (now r - t0);
  v

let abort_reason = function
  | Errors.Lock_timeout _ -> Some Trace.Lock_timeout
  | Errors.Deadlock _ -> Some Trace.Deadlock
  | Rpc.Rpc_timeout _ -> Some Trace.Comm_failure
  | Errors.Transaction_is_aborted _ -> Some Trace.Explicit
  | _ -> None

(* The transaction body: every [Sharded] call timed on its own. Keys
   are locked in ascending order, so two transactions never deadlock
   over the same pair. *)
let body r a ~rpc tid =
  let op f = timed r r.st.op_us f in
  match (r.d.data, a.op) with
  | Cells arr, Write keys ->
      List.iter
        (fun k ->
          op (fun () -> Sharded.Int_array.set arr rpc tid k a.aid);
          r.st.page_touches <- r.st.page_touches + 1;
          a.writes <- (k, { at = now r; value = a.aid; status = Pending }) :: a.writes)
        (List.sort_uniq compare keys)
  | Accounts accts, Transfer { from_; to_; amount } ->
      op (fun () -> Sharded.Accounts.transfer accts rpc tid ~from_ ~to_ amount);
      r.st.page_touches <- r.st.page_touches + 2
  | Accounts accts, Audit ks ->
      List.iter
        (fun k ->
          ignore (op (fun () -> Sharded.Accounts.balance accts rpc tid k));
          r.st.page_touches <- r.st.page_touches + 1)
        (List.sort compare ks)
  | Cells _, (Transfer _ | Audit _) | Accounts _, Write _ ->
      invalid_arg "body: operation does not match the deployment"

let cross r op =
  match Spec.keys_of op with
  | [] -> false
  | k :: ks ->
      let s = (locate r.d k).shard in
      List.exists (fun k -> (locate r.d k).shard <> s) ks

let record_writes r a status =
  List.iter
    (fun (k, w) ->
      w.status <- status;
      let prev = Option.value ~default:[] (Hashtbl.find_opt r.history k) in
      Hashtbl.replace r.history k (w :: prev))
    a.writes

(* One attempt, run inside a fiber on its gateway node. Returns whether
   it committed; a crash under it never returns (the fiber dies). *)
let attempt r a =
  let node = Cluster.node r.d.cluster a.gateway in
  let tm = Node.tm node and rpc = Node.rpc node in
  r.st.attempts <- r.st.attempts + 1;
  a.began <- now r;
  let tid = timed r r.st.begin_us (fun () -> Tabs_tm.Txn_mgr.begin_txn tm) in
  let verdict =
    match body r a ~rpc tid with
    | () ->
        let dist = cross r a.op in
        let h = if dist then r.st.commit_dist_us else r.st.commit_local_us in
        (match timed r h (fun () -> Tabs_tm.Txn_mgr.commit tm tid) with
        | Tabs_tm.Txn_mgr.Committed ->
            if dist then r.st.cross_committed <- r.st.cross_committed + 1;
            true
        | Tabs_tm.Txn_mgr.Aborted -> false)
    | exception (Engine.Killed as e) -> raise e
    | exception e -> (
        match abort_reason e with
        | Some reason ->
            Tabs_tm.Txn_mgr.abort tm ~reason tid;
            false
        | None ->
            r.st.unexpected <- Printexc.to_string e :: r.st.unexpected;
            Tabs_tm.Txn_mgr.abort tm tid;
            false)
  in
  record_writes r a (if verdict then Acked else Undone);
  a.writes <- [];
  verdict

let rec submit r a =
  let node = Cluster.node r.d.cluster a.gateway in
  if not (Node.is_up node) then Queue.push a r.parked.(a.gateway)
  else if r.outstanding.(a.gateway) >= Spec.max_outstanding then begin
    r.st.shed <- r.st.shed + 1;
    r.st.gave_up <- r.st.gave_up + 1
  end
  else begin
    r.outstanding.(a.gateway) <- r.outstanding.(a.gateway) + 1;
    Hashtbl.replace r.inflight a.aid a;
    Cluster.spawn r.d.cluster ~node:a.gateway (fun () ->
        let ok = attempt r a in
        if not a.dead then begin
          Hashtbl.remove r.inflight a.aid;
          r.outstanding.(a.gateway) <- r.outstanding.(a.gateway) - 1;
          if ok then committed r a else failed r a
        end)
  end

and committed r a =
  let st = r.st in
  st.committed <- st.committed + 1;
  if a.tries = 1 then st.first_try <- st.first_try + 1;
  Hist.add st.latency (now r - a.began);
  let shard = (locate r.d (Spec.home a.op)).shard in
  match r.wounded.(shard) with
  | Some rs when now r >= rs.r_start ->
      rs.r_ttfc_us <- Some (now r - rs.r_start);
      r.wounded.(shard) <- None
  | Some _ | None -> ()

and failed r a =
  if a.dead then r.st.killed <- r.st.killed + 1
  else r.st.aborted <- r.st.aborted + 1;
  if r.retry && a.tries < max_tries then
    Engine.at r.d.engine ~delay:retry_backoff (fun () ->
        submit r { a with aid = fresh r; tries = a.tries + 1; dead = false; writes = [] })
  else r.st.gave_up <- r.st.gave_up + 1

and fresh r =
  r.next_aid <- r.next_aid + 1;
  r.next_aid

let offer r op =
  r.st.offered <- r.st.offered + 1;
  let gateway = (locate r.d (Spec.home op)).node in
  submit r { aid = fresh r; op; began = 0; tries = 1; gateway; dead = false; writes = [] }

(* {2 Crashes and restarts} *)

let fold_in_volatile r node =
  let c = r.carried in
  c.vm_faults <- c.vm_faults + Tabs_accent.Vm.faults (Node.vm node);
  Array.iteri
    (fun shard s ->
      if (Cluster.shard_node r.d.cluster shard) == node then
        c.lock_timeouts <- c.lock_timeouts + Tabs_lock.Lock_manager.timeouts (Server_lib.lock_manager s))
    r.d.servers

let crash r ~shard =
  let node = Cluster.shard_node r.d.cluster shard in
  let log = Node.log node in
  let live = Tabs_wal.Log_manager.next_lsn log - Tabs_wal.Log_manager.first_lsn log in
  fold_in_volatile r node;
  Node.crash node;
  let id = Node.id node in
  let lost =
    Hashtbl.fold (fun _ a acc -> if a.gateway = id then a :: acc else acc) r.inflight []
  in
  List.iter
    (fun a ->
      a.dead <- true;
      Hashtbl.remove r.inflight a.aid;
      record_writes r a Pending;
      a.writes <- [];
      failed r a)
    (List.sort (fun a b -> compare a.aid b.aid) lost);
  r.outstanding.(id) <- 0;
  live

(* Restart [shard]'s node inside a fresh fiber; arrivals parked while
   it was down are offered again once it opens. *)
let restart r ~shard ~live =
  let node = Cluster.shard_node r.d.cluster shard in
  let rs =
    { r_shard = shard; r_live_records = live; r_crash = now r - Spec.restart_after; r_start = now r; r_open_us = 0; r_scanned = 0; r_ttfc_us = None }
  in
  r.restarts <- rs :: r.restarts;
  r.wounded.(shard) <- Some rs;
  Cluster.spawn r.d.cluster ~node:(Node.id node) (fun () ->
      match Node.restart node ~reinstall:(reinstall r.d ~shard) () with
      | o ->
          rs.r_open_us <- o.Tabs_recovery.Recovery_mgr.time_to_open_us;
          rs.r_scanned <- o.records_scanned;
          let q = r.parked.(Node.id node) in
          while not (Queue.is_empty q) do
            submit r (Queue.pop q)
          done
      | exception (Engine.Killed as e) -> raise e
      | exception e ->
          r.st.unexpected <-
            Printf.sprintf "restart of shard %d: %s" shard (Printexc.to_string e) :: r.st.unexpected)

(* {2 The reference phase} *)

(* Drive [offsets]/[ops] against the deployment, with the failover
   crash schedule when [crashes], and run until everything drained. *)
(* Drive [offsets] into the deployment for [window] with [crashes], in
   [chunks] equal slices of virtual time, then drain. Returns each
   slice's wall seconds and commits: slicing only splits the clock's
   advance, so the run is the same for any [chunks]. *)
let drive ?(chunks = 1) r ~(arrivals : Spec.arrival array) ~offsets ~window ~crashes =
  let start = now r in
  Array.iteri
    (fun i off ->
      if off < window then Engine.at r.d.engine ~delay:off (fun () -> offer r arrivals.(i).op))
    offsets;
  List.iter
    (fun (kill_at, shard) ->
      Engine.at r.d.engine ~delay:kill_at (fun () ->
          let live = crash r ~shard in
          Engine.at r.d.engine ~delay:Spec.restart_after (fun () -> restart r ~shard ~live)))
    crashes;
  let slices = ref [] in
  for k = 1 to chunks do
    let w0 = Unix.gettimeofday () and c0 = r.st.committed in
    Cluster.run_until r.d.cluster ~time:(start + (window / chunks * k));
    slices := (Unix.gettimeofday () -. w0, r.st.committed - c0) :: !slices
  done;
  Cluster.run_until r.d.cluster ~time:(start + window + 60_000_000);
  List.rev !slices

(* {2 Oracles} *)

let quiescence r =
  let v = ref [] in
  List.iter
    (fun n ->
      if not (Node.is_up n) then v := Printf.sprintf "node %d is down" (Node.id n) :: !v
      else if Tabs_tm.Txn_mgr.in_doubt (Node.tm n) <> [] then
        v := Printf.sprintf "node %d has in-doubt transactions" (Node.id n) :: !v)
    (Cluster.nodes r.d.cluster);
  Array.iteri
    (fun shard s ->
      let holds = Tabs_lock.Lock_manager.total_holds (Server_lib.lock_manager s) in
      if holds <> 0 then v := Printf.sprintf "shard %d still holds %d locks" shard holds :: !v)
    r.d.servers;
  if Hashtbl.length r.inflight <> 0 then
    v := Printf.sprintf "%d transactions never reached a verdict" (Hashtbl.length r.inflight) :: !v;
  Array.iteri
    (fun n q -> if not (Queue.is_empty q) then v := Printf.sprintf "node %d has parked arrivals" n :: !v)
    r.parked;
  let st = r.st in
  if st.committed + st.gave_up <> st.offered then
    v := Printf.sprintf "%d offered, %d committed, %d given up" st.offered st.committed st.gave_up :: !v;
  List.iter (fun e -> v := ("unexpected exception: " ^ e) :: !v) st.unexpected;
  List.rev !v

(* Read [keys] on their home shards, [chunk] per read-only transaction. *)
let read_all r keys read =
  let by_shard = Array.make r.d.spec.shards [] in
  List.iter (fun k -> let s = (locate r.d k).shard in by_shard.(s) <- k :: by_shard.(s)) keys;
  let out = Hashtbl.create 1024 in
  Array.iteri
    (fun shard ks ->
      let node = Cluster.shard_node r.d.cluster shard in
      let rec chunks = function
        | [] -> ()
        | ks ->
            let rec split n acc = function
              | k :: rest when n > 0 -> split (n - 1) (k :: acc) rest
              | rest -> (acc, rest)
            in
            let now_, rest = split 512 [] ks in
            Cluster.spawn r.d.cluster ~node:(Node.id node) (fun () ->
                let tm = Node.tm node and rpc = Node.rpc node in
                (* a key still locked after the drain stays unread, and
                   the oracle reports it *)
                let rec go tries =
                  match
                    Txn_lib.execute_transaction tm (fun tid ->
                        List.map (fun k -> (k, read rpc tid k)) now_)
                  with
                  | kvs -> List.iter (fun (k, v) -> Hashtbl.replace out k v) kvs
                  | exception (Engine.Killed as e) -> raise e
                  | exception _ when tries > 1 -> go (tries - 1)
                  | exception _ -> ()
                in
                go 3);
            chunks rest
      in
      chunks (List.rev ks))
    by_shard;
  Cluster.run_until r.d.cluster ~time:(now r + 3_600_000_000);
  out

(* Acknowledged commits are durable: each written key holds its last
   acknowledged value, or a later write whose outcome the client never
   learned (its node crashed under it) — never an undone or older one. *)
let durability r =
  match r.d.data with
  | Accounts _ -> []
  | Cells arr ->
      let keys = List.init r.d.spec.keys Fun.id in
      let values = read_all r keys (fun rpc tid k -> Sharded.Int_array.get arr rpc tid k) in
      List.filter_map
        (fun k ->
          let ws = Option.value ~default:[] (Hashtbl.find_opt r.history k) in
          let last_acked =
            List.fold_left
              (fun acc w -> match (w.status, acc) with
                | Acked, Some b when b.at >= w.at -> acc
                | Acked, _ -> Some w
                | (Pending | Undone), _ -> acc)
              None ws
          in
          let floor = match last_acked with Some w -> w.at | None -> -1 in
          let allowed =
            (match last_acked with Some w -> w.value | None -> preload_value k)
            :: List.filter_map
                 (fun w -> if w.status = Pending && w.at > floor then Some w.value else None)
                 ws
          in
          match Hashtbl.find_opt values k with
          | Some v when List.mem v allowed -> None
          | Some v -> Some (Printf.sprintf "key %d holds %d, expected one of [%s]" k v
                              (String.concat ";" (List.map string_of_int allowed)))
          | None -> Some (Printf.sprintf "key %d was not read back" k))
        keys

(* Money is conserved: the balances sum to the funded total. *)
let conservation r =
  match r.d.data with
  | Cells _ -> []
  | Accounts accts ->
      let keys = List.init r.d.spec.keys Fun.id in
      let values = read_all r keys (fun rpc tid k -> Sharded.Accounts.balance accts rpc tid k) in
      let total = Hashtbl.fold (fun _ v acc -> acc + v) values 0 in
      let expected = Spec.initial_balance * r.d.spec.keys in
      if Hashtbl.length values = r.d.spec.keys && total = expected then []
      else [ Printf.sprintf "balances sum to %d over %d accounts, funded %d" total (Hashtbl.length values) expected ]

(* {2 Restart probe} *)

(* Step the clock until the client and the cluster are idle: every
   offered transaction decided, nothing in doubt, no lock held. *)
let settle r ~limit =
  let deadline = now r + limit in
  let rec go () =
    if quiescence r = [] then true
    else if now r >= deadline then false
    else begin
      Cluster.run_until r.d.cluster ~time:(now r + 100_000);
      go ()
    end
  in
  go ()

(* For workloads that crash nothing in their reference phase. Each
   cycle kills the next shard once the cluster is idle, restarts it
   500 ms later, and offers the workload's own arrivals from the crash
   on, one [kill_period] of them, extended until the restarted shard
   has committed; then the cluster settles again. Crashing an idle
   cluster measures restart and recovery, not the fate of interrupted
   transactions: the [failover] workload crashes under load. A cycle
   starts only while the stream holds all the slices it may take. *)
let probe r ~(arrivals : Spec.arrival array) ~offsets =
  r.retry <- true;
  let spec = r.d.spec in
  let period = spec.kill_period and max_slices = 10 in
  let n = Array.length offsets in
  let next = ref 0 in
  (* offer the arrivals of stream time [from, from + period) from now *)
  let offer_slice from =
    while !next < n && offsets.(!next) < from + period do
      let i = !next in
      Engine.at r.d.engine ~delay:(offsets.(i) - from) (fun () -> offer r arrivals.(i).op);
      incr next
    done;
    Cluster.run_until r.d.cluster ~time:(now r + period)
  in
  let rec cycle c from =
    if from + (max_slices * period) <= spec.probe_window then
      if not (settle r ~limit:120_000_000) then
        r.st.unexpected <- Printf.sprintf "restart probe: cluster not idle before crash %d" c :: r.st.unexpected
      else begin
        let shard = c mod spec.shards in
        let live = crash r ~shard in
        Engine.at r.d.engine ~delay:Spec.restart_after (fun () -> restart r ~shard ~live);
        let rec slices from k =
          offer_slice from;
          let from = from + period in
          if r.wounded.(shard) <> None && k < max_slices then slices from (k + 1) else from
        in
        cycle (c + 1) (slices from 1)
      end
  in
  cycle 0 0;
  ignore (settle r ~limit:120_000_000)
