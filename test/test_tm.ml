(* Transaction Manager-focused tests: the read-only optimization, the
   presumed-abort status protocol, active-transaction reporting, and
   commit/abort idempotence. *)

open Tabs_sim
open Tabs_core
open Tabs_tm
open Tabs_servers

let quick name f = Alcotest.test_case name `Quick f

let two_nodes ?read_only_optimization () =
  let c = Cluster.create ?read_only_optimization ~nodes:2 () in
  List.iter
    (fun node ->
      ignore
        (Int_array_server.create (Node.env node)
           ~name:(Printf.sprintf "a%d" (Node.id node))
           ~segment:1 ~cells:64 ()))
    (Cluster.nodes c);
  c

let ro_txn c =
  let n0 = Cluster.node c 0 in
  let tm = Node.tm n0 and rpc = Node.rpc n0 in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.call_get rpc ~dest:0 ~server:"a0" tid 0);
          ignore (Int_array_server.call_get rpc ~dest:1 ~server:"a1" tid 0)))

let test_ro_commit_no_force () =
  let c = two_nodes () in
  let engine = Cluster.engine c in
  ro_txn c;
  Alcotest.(check int) "read-only distributed commit forces nothing" 0
    (Metrics.count (Engine.metrics engine) Cost_model.Stable_storage_write);
  Alcotest.(check int) "two datagrams: prepare + read-only vote" 2
    (Metrics.count (Engine.metrics engine) Cost_model.Datagram)

let test_ro_disabled_full_protocol () =
  let c = two_nodes ~read_only_optimization:false () in
  let engine = Cluster.engine c in
  ro_txn c;
  Alcotest.(check int) "full 2PC forces twice" 2
    (Metrics.count (Engine.metrics engine) Cost_model.Stable_storage_write);
  Alcotest.(check int) "four datagrams" 4
    (Metrics.count (Engine.metrics engine) Cost_model.Datagram)

let test_local_ro_commit_no_force () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  let tm = Node.tm node in
  Cluster.run_fiber c ~node:0 (fun () ->
      Txn_lib.execute_transaction tm (fun tid ->
          ignore (Int_array_server.get arr tid 0)));
  Alcotest.(check int) "local read-only commit writes no log" 0
    (Metrics.count (Engine.metrics (Cluster.engine c))
       Cost_model.Stable_storage_write)

let test_status_query_presumed_abort () =
  (* a coordinator with no memory of a transaction answers Aborted *)
  let c = two_nodes () in
  let n1 = Cluster.node c 1 in
  let unknown = Tabs_wal.Tid.top ~node:0 ~seq:999 in
  (* simulate a stranded participant on node 1 asking node 0 *)
  let outcome = ref None in
  Tabs_net.Comm_mgr.add_datagram_handler (Node.cm n1) (fun ~src:_ payload ->
      match payload with
      | Txn_mgr.Tm_status_reply (tid, o) when Tabs_wal.Tid.equal tid unknown ->
          outcome := Some o
      | _ -> ());
  Cluster.run_fiber c ~node:1 (fun () ->
      Tabs_net.Comm_mgr.send_datagram (Node.cm n1) ~dest:0
        (Txn_mgr.Tm_status_query unknown);
      Engine.delay 200_000);
  Alcotest.(check bool) "presumed abort" true (!outcome = Some Txn_mgr.Aborted)

let test_active_txns_reported () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  let tm = Node.tm node in
  Cluster.spawn c ~node:0 (fun () ->
      let tid = Txn_lib.begin_transaction tm () in
      Int_array_server.set arr tid 0 1;
      Alcotest.(check int) "one active txn at checkpoint time" 1
        (List.length (Txn_mgr.active_txns tm));
      Txn_lib.abort_transaction tm tid;
      Alcotest.(check int) "none after abort" 0
        (List.length (Txn_mgr.active_txns tm)));
  Cluster.run c

let test_commit_after_abort_refused () =
  let c = Cluster.create ~nodes:1 () in
  let node = Cluster.node c 0 in
  let arr = Int_array_server.create (Node.env node) ~name:"a" ~segment:1 ~cells:8 () in
  let tm = Node.tm node in
  let result =
    Cluster.run_fiber c ~node:0 (fun () ->
        let tid = Txn_lib.begin_transaction tm () in
        Int_array_server.set arr tid 0 1;
        Txn_lib.abort_transaction tm tid;
        Txn_lib.end_transaction tm tid)
  in
  Alcotest.(check bool) "commit of aborted txn fails" false result

let test_unique_tids () =
  let c = Cluster.create ~nodes:2 () in
  let tids =
    List.concat_map
      (fun node ->
        Cluster.run_fiber c ~node:(Node.id node) (fun () ->
            List.init 5 (fun _ ->
                let tid = Txn_lib.begin_transaction (Node.tm node) () in
                Txn_lib.abort_transaction (Node.tm node) tid;
                tid)))
      (Cluster.nodes c)
  in
  let unique = List.sort_uniq Tabs_wal.Tid.compare tids in
  Alcotest.(check int) "globally unique" (List.length tids) (List.length unique)

(* A participant writes, crashes before the Prepare reaches it, and
   restarts: recovery rolls its write back, so its new incarnation has
   no trace of the family. Presumed abort: it must vote No — voting
   Read_only (or Yes with the optimization off) lets the coordinator
   commit without the lost write. The family aborts everywhere and no
   replica holds its write. *)
let crashed_participant_votes_no ~commit_protocol ~read_only_optimization =
  let nodes =
    match commit_protocol with
    | Commit_protocol.Paxos _ -> 3 (* acceptors on nodes 0..2 *)
    | Commit_protocol.Two_phase -> 2
  in
  let c = Cluster.create ~nodes ~commit_protocol ~read_only_optimization () in
  let array_on env id =
    Int_array_server.create env ~name:(Printf.sprintf "a%d" id) ~segment:1
      ~cells:64 ()
  in
  let arrays =
    List.map
      (fun node -> array_on (Node.env node) (Node.id node))
      (Cluster.nodes c)
  in
  let n0 = Cluster.node c 0 and n1 = Cluster.node c 1 in
  let tm = Node.tm n0 in
  let tid = ref None in
  Cluster.spawn c ~node:0 (fun () ->
      let t = Txn_lib.begin_transaction tm () in
      Int_array_server.set (List.hd arrays) t 0 5;
      Int_array_server.call_set (Node.rpc n0) ~dest:1 ~server:"a1" t 0 6;
      tid := Some t);
  Cluster.run_until c ~time:1_000_000;
  let tid = Option.get !tid in
  Node.crash n1;
  let a1 = ref None in
  ignore
    (Cluster.run_fiber c ~node:1 (fun () ->
         Node.restart n1
           ~reinstall:(fun env -> a1 := Some (array_on env 1))
           ()));
  let committed =
    Cluster.run_fiber c ~node:0 (fun () -> Txn_lib.end_transaction tm tid)
  in
  Alcotest.(check bool) "the family aborts" false committed;
  let read node arr =
    Cluster.run_fiber c ~node:(Node.id node) (fun () ->
        Txn_lib.execute_transaction (Node.tm node) (fun t ->
            Int_array_server.get arr t 0))
  in
  Alcotest.(check (pair int int))
    "no replica holds the write" (0, 0)
    (read n0 (List.hd arrays), read n1 (Option.get !a1));
  List.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "nothing in doubt on node %d" (Node.id node))
        0
        (List.length (Txn_mgr.in_doubt (Node.tm node))))
    (Cluster.nodes c)

(* with the read-only optimization on, the lost participant would vote
   Read_only; with it off, Yes *)
let test_crashed_participant_votes_no commit_protocol () =
  List.iter
    (fun read_only_optimization ->
      crashed_participant_votes_no ~commit_protocol ~read_only_optimization)
    [ true; false ]

let suites =
  [
    ( "tm",
      [
        quick "RO commit no force" test_ro_commit_no_force;
        quick "RO disabled" test_ro_disabled_full_protocol;
        quick "local RO no force" test_local_ro_commit_no_force;
        quick "presumed abort" test_status_query_presumed_abort;
        quick "active txns" test_active_txns_reported;
        quick "commit after abort" test_commit_after_abort_refused;
        quick "unique tids" test_unique_tids;
        quick "participant crashed before prepare votes No (2PC)"
          (test_crashed_participant_votes_no Commit_protocol.Two_phase);
        quick "participant crashed before prepare votes No (Paxos)"
          (test_crashed_participant_votes_no (Commit_protocol.Paxos { f = 1 }));
      ] );
  ]
