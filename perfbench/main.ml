(* Benchmark entry point.

     main.exe --workload <oltp-zipf|bank-paged|failover> --seed <n>
              --seconds <s> --trace <0|1>

   [--trace 0] reports the end-to-end metrics: virtual-time latency,
   first-try success share, capacity under the 2 s p99 limit and time
   to first commit after a restart (exact for a seed), plus set-up wall
   time (sampled on its own for [--seconds], median) and live heap.

   [--trace 1] runs the workload once untraced and once with
   [Tabs_obs.Recorder] attached, requires identical virtual-time
   results from both, and reports the per-layer metrics, wall
   micro-timings of single layers, and the simulator's commits per
   wall second (median over equal slices of the untraced reference
   phase).

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Any failed oracle makes [correct] false and is printed before it. *)

module Hist = Tabs_obs.Hist

let wall = Unix.gettimeofday

type run = {
  r : Drive.t;
  st : Drive.stats;  (** the reference phase *)
  setup_s : float;
  slices : (float * int) list;
      (** wall seconds and commits of each slice of the reference phase *)
  before : Layers.counters;
  after : Layers.counters;
  final : Layers.counters;
  ref_entries : Tabs_obs.Recorder.entry list;
  fp : string;
  heap_mb : float;  (** live heap after the reference phase (checked runs) *)
  violations : string list;
}

(* Everything virtual-time the reference phase produced, for the
   determinism and tracing-is-observational checks. *)
let fingerprint (r : Drive.t) ~events =
  let st = r.st in
  let lat = st.latency and ops = st.op_us in
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d lat=%d,%d,%d,%d ops=%d,%d,%d restarts=[%s] t=%d ev=%d"
    st.offered st.committed st.first_try st.aborted st.killed st.shed st.gave_up
    (Hist.count lat) (Hist.p50 lat) (Hist.p99 lat) (Hist.mean lat)
    (Hist.count ops) (Hist.p99 ops) (Hist.mean ops)
    (String.concat ";"
       (List.map
          (fun (rs : Drive.restart) ->
            Printf.sprintf "%d:%d:%d:%s" rs.r_shard rs.r_open_us rs.r_scanned
              (match rs.r_ttfc_us with Some t -> string_of_int t | None -> "-"))
          r.restarts))
    (Tabs_sim.Engine.now r.d.engine) events

(* [Span.balanced], except for transactions whose coordinator crashed
   while they were open: nothing is left to close their spans. *)
let unclosed_spans (r : Drive.t) entries =
  let crashed_under (s : Tabs_obs.Span.t) =
    List.exists
      (fun (rs : Drive.restart) ->
        Tabs_core.Node.id (Tabs_core.Cluster.shard_node r.d.cluster rs.r_shard) = s.origin
        && rs.r_crash >= s.began)
      r.restarts
  in
  let spans = Tabs_obs.Span.of_entries entries in
  if Tabs_obs.Span.balanced spans then []
  else
    List.filter_map
      (fun (s : Tabs_obs.Span.t) ->
        if Tabs_obs.Span.complete s || crashed_under s then None
        else Some (Printf.sprintf "trace: span of %s never closed" (Tabs_wal.Tid.to_string s.tid)))
      spans

let execute (spec : Spec.t) ~arrivals ~offsets ~traced ~checks =
  (* every set-up starts from a collected heap *)
  Gc.full_major ();
  let t0 = wall () in
  let d = Drive.setup spec in
  let setup_s = wall () -. t0 in
  let r = Drive.create d ~retry:(spec.kind = Failover) in
  let recorder = if traced then Some (Tabs_obs.Recorder.attach d.engine) else None in
  let before = Layers.counters r in
  let window = spec.horizon in
  let slices =
    Drive.drive ~chunks:Spec.slices r ~arrivals ~offsets ~window ~crashes:(Spec.crashes spec ~window)
  in
  let after = Layers.counters r in
  let st = r.st in
  let fp = fingerprint r ~events:(after.events - before.events) in
  let heap_mb =
    if checks then begin
      Gc.full_major ();
      float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1048576.
    end
    else 0.
  in
  let n_ref = Option.fold ~none:0 ~some:Tabs_obs.Recorder.length recorder in
  let violations = ref [] in
  let check vs = violations := !violations @ vs in
  if checks then begin
    check (Drive.quiescence r);
    if spec.kind <> Failover then begin
      check (Drive.durability r @ Drive.conservation r);
      r.st <- Drive.new_stats ();
      Drive.probe r ~arrivals
        ~offsets:(Spec.offsets arrivals ~horizon:spec.probe_window ~rate:spec.rate);
      let after_probe = List.map (( ^ ) "after the restart probe: ") in
      check (after_probe (Drive.quiescence r @ Drive.durability r @ Drive.conservation r))
    end
    else check (Drive.durability r);
    List.iter
      (fun (rs : Drive.restart) ->
        if rs.r_ttfc_us = None then
          check [ Printf.sprintf "shard %d never committed after its restart at %d" rs.r_shard rs.r_start ])
      r.restarts
  end;
  let final = Layers.counters r in
  let ref_entries =
    match recorder with
    | None -> []
    | Some rc ->
        let all = Tabs_obs.Recorder.entries rc in
        Tabs_obs.Recorder.detach rc;
        check (unclosed_spans r all);
        List.filteri (fun i _ -> i < n_ref) all
  in
  { r; st; setup_s; before; after; final; ref_entries; fp; heap_mb; slices; violations = !violations }

(* {2 End-to-end metrics} *)

let ms us = float_of_int us /. 1000.

(* Mean time to first commit over the middle half of the restarts: the
   tail (a restart behind a long analysis scan or a blocked in-doubt
   transaction) would otherwise move the mean of a whole run, and the
   plain median sits on a few recurring values. *)
let ttfc_ms x =
  let ts = List.sort compare (List.filter_map (fun (rs : Drive.restart) -> rs.r_ttfc_us) x.r.restarts) in
  let n = List.length ts in
  let cut = n / 4 in
  let kept = List.filteri (fun i _ -> i >= cut && i < n - cut) ts in
  if kept = [] then 0. else ms (List.fold_left ( + ) 0 kept) /. float_of_int (List.length kept)

let virtual_e2e x =
  let st = x.st in
  [
    ("commit_mean_ms", "ms", ms (Hist.mean st.latency));
    ("commit_p99_ms", "ms", ms (Hist.p99 st.latency));
    ("ok_pct", "%", 100. *. float_of_int st.first_try /. float_of_int (max 1 st.offered));
    ("ttfc_ms", "ms", ttfc_ms x);
  ]

(* p99 over every offered transaction, failures counted as misses. *)
let p99_offered (st : Drive.stats) =
  let rank = int_of_float (ceil (0.99 *. float_of_int st.offered)) in
  if rank > st.first_try then max_int
  else
    (* nearest rank [rank] among the committed samples *)
    Hist.percentile st.latency
      ((float_of_int rank -. 0.5) *. 100. /. float_of_int st.first_try)

(* Highest offered rate whose crash-free run sheds nothing and keeps
   p99 over all offered within the limit: bisection over the workload's
   bracket, whose ends are assumed to pass and fail; an end is run only
   if the search converges on it. The same transactions at every rate. *)
let capacity (spec : Spec.t) ~arrivals =
  let steps = 4 in
  let pass rate =
    let d = Drive.setup spec in
    let r = Drive.create d ~retry:false in
    ignore
      (Drive.drive r ~arrivals
         ~offsets:(Spec.offsets arrivals ~rate ~horizon:spec.capacity_horizon)
         ~window:spec.capacity_horizon ~crashes:[]);
    r.st.shed = 0 && p99_offered r.st <= Spec.capacity_p99_limit_us
  in
  let lo0, hi0 = spec.capacity_bracket in
  let lo = ref lo0 and hi = ref hi0 in
  for _ = 1 to steps do
    let mid = (!lo +. !hi) /. 2. in
    if pass mid then lo := mid else hi := mid
  done;
  if !lo = lo0 && not (pass lo0) then nan
  else if !hi = hi0 && pass hi0 then hi0
  else !lo

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* {2 Output} *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let finish ~attempted ~failed ~violations metrics =
  let violations =
    List.rev (List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] violations)
  in
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  let violations =
    violations @ List.map (fun (n, _, _) -> Printf.sprintf "metric %s is not finite" n) bad
  in
  let metrics = List.map (fun (n, u, v) -> if Float.is_finite v then (n, u, v) else (n, u, 0.)) metrics in
  List.iteri (fun i v -> if i < 20 then Printf.printf "ORACLE FAILED: %s\n" v) violations;
  if List.length violations > 20 then
    Printf.printf "ORACLE FAILED: ... and %d more\n" (List.length violations - 20);
  List.iter (fun (n, u, v) -> Printf.printf "  %-36s %14.4f %s\n" n v u) metrics;
  let correct = violations = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (json_metrics metrics)

(* Commits per wall second of each slice of the reference phase. *)
let slice_rates x = List.map (fun (w, c) -> float_of_int c /. w) x.slices

(* Set-up repeated on its own for [seconds], at least 3 times. *)
let sample_setups (spec : Spec.t) ~seconds =
  let t0 = wall () in
  let rec go acc n =
    if (wall () -. t0 >= seconds && n >= 3) || n >= 100 then acc
    else begin
      Gc.full_major ();
      let s0 = wall () in
      ignore (Drive.setup spec);
      go ((wall () -. s0) :: acc) (n + 1)
    end
  in
  go [] 0

let end_to_end (spec : Spec.t) ~arrivals ~offsets ~seconds =
  let first = execute spec ~arrivals ~offsets ~traced:false ~checks:true in
  (* The host's speed changes over tens of seconds, so set-up is
     sampled for half of [seconds] on each side of the capacity search
     and [setup_s] is the median of all samples. *)
  let before_cap = sample_setups spec ~seconds:(seconds /. 2.) in
  Printf.printf "workload %s seed-derived inputs: %d offered at %.1f txn/s over %d virtual s\n"
    spec.name (Array.length offsets) spec.rate (spec.horizon / 1_000_000);
  List.iter
    (fun (rs : Drive.restart) ->
      Printf.printf "  restart shard %d at %d us: open %d us, ttfc %s us\n" rs.r_shard rs.r_start rs.r_open_us
        (match rs.r_ttfc_us with Some t -> string_of_int t | None -> "-"))
    (List.rev first.r.restarts);
  let cap = capacity spec ~arrivals in
  let setups = (first.setup_s :: before_cap) @ sample_setups spec ~seconds:(seconds /. 2.) in
  let wall_e2e = [ ("setup_s", "s", median setups); ("live_heap_mb", "MB", first.heap_mb) ] in
  let metrics =
    match virtual_e2e first with
    | mean :: p99 :: ok :: ttfc :: _ -> [ mean; p99; ok; ("capacity_tps", "txn/s", cap); ttfc ] @ wall_e2e
    | _ -> assert false
  in
  finish ~attempted:first.st.offered ~failed:first.st.gave_up ~violations:first.violations metrics

(* The traced run's spans, one JSON object a line, written when the run
   ends to [out_dir]/<workload>-seed<n>.spans.jsonl. *)
let out_dir = "perfbench-out"

let write_spans (spec : Spec.t) ~seed entries =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" spec.name seed) in
  let oc = open_out path in
  List.iter
    (fun (s : Tabs_obs.Span.t) ->
      let opt = function Some v -> string_of_int v | None -> "null" in
      let outcome =
        match s.outcome with
        | Some Tabs_obs.Span.Committed -> "\"committed\""
        | Some (Tabs_obs.Span.Aborted r) -> Printf.sprintf "\"aborted:%s\"" (Tabs_sim.Trace.reason_name r)
        | None -> "null"
      in
      Printf.fprintf oc
        "{\"tid\": %S, \"origin\": %d, \"began_us\": %d, \"ended_us\": %s, \"outcome\": %s, \"distributed\": %b, \"lock_wait_us\": %d, \"lock_waits\": %d, \"prepare_sent_us\": %s}\n"
        (Tabs_wal.Tid.to_string s.tid) s.origin s.began (opt s.ended) outcome s.distributed s.lock_wait
        s.lock_waits (opt s.prepare_sent_at))
    (Tabs_obs.Span.of_entries entries);
  close_out oc;
  Printf.printf "spans of the traced reference phase written to %s\n" path

let per_layer (spec : Spec.t) ~arrivals ~offsets ~seed =
  let u = execute spec ~arrivals ~offsets ~traced:false ~checks:true in
  let t = execute spec ~arrivals ~offsets ~traced:true ~checks:true in
  let same =
    if u.fp = t.fp && virtual_e2e u = virtual_e2e t then []
    else [ "tracing changed the run: " ^ t.fp ^ " vs " ^ u.fp ]
  in
  (* tracing overhead: median over the slices, which are the same
     virtual-time work in both runs *)
  let overhead =
    median (List.map2 (fun (wu, _) (wt, _) -> (wt -. wu) /. wu) u.slices t.slices)
  in
  write_spans spec ~seed t.ref_entries;
  let g = Layers.gen spec arrivals ~offsets in
  let mi = Layers.micro ~table_entries:g.table_entries in
  let metrics =
    Layers.metrics ~st:t.st ~before:t.before ~after:t.after ~final:t.final
      ~untraced_minor_words:(u.after.minor_words -. u.before.minor_words)
      ~ref_entries:t.ref_entries ~restarts:t.r.restarts ~g ~mi
      ~overhead_pct:(100. *. overhead)
  in
  (* the simulator's speed: ungated, because on a shared machine it
     moves by more than any bound the benchmark may set *)
  let metrics = metrics @ [ ("sim_txn_per_s", "txn/s", median (slice_rates u)) ] in
  finish ~attempted:t.st.offered ~failed:t.st.gave_up
    ~violations:(u.violations @ t.violations @ same) metrics

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref (-1) in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " oltp-zipf | bank-paged | failover");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " wall seconds of repeated set-ups");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec =
    match Spec.find !workload with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let _, hi = spec.capacity_bracket in
  let window = max spec.horizon (max spec.probe_window spec.capacity_horizon) in
  let arrivals = Spec.arrivals spec ~seed:!seed ~max_rate:(Float.max hi spec.rate) ~window in
  let offsets = Spec.offsets arrivals ~horizon:spec.horizon ~rate:spec.rate in
  let seconds = float_of_int !seconds in
  match
    if !trace = 0 then end_to_end spec ~arrivals ~offsets ~seconds
    else per_layer spec ~arrivals ~offsets ~seed:!seed
  with
  | () -> ()
  | exception e ->
      (* the simulation itself failed: no metric is worth reporting *)
      Printf.printf "ORACLE FAILED: run aborted: %s\n" (Printexc.to_string e);
      print_endline "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
