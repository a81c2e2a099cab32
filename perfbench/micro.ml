(* Wall-clock micro-timings of single layers' hot primitives, through
   public functions only, at sizes taken from the workload. Each is
   [samples] repeated measurements; the report is median, min and max. *)

open Tabs_sim

let samples = 15

type summary = { median : float; min : float; max : float }

let summarize xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  { median = a.(n / 2); min = a.(0); max = a.(n - 1) }

let wall = Unix.gettimeofday

(* Run [f] in a fiber of a fresh engine and return its result. *)
let in_fiber ?engine f =
  let e = match engine with Some e -> e | None -> Engine.create () in
  let out = ref None in
  ignore (Engine.spawn e (fun () -> out := Some (f e)));
  ignore (Engine.run e);
  match !out with Some v -> v | None -> failwith "micro: fiber did not finish"

(* [Engine.at] + [Engine.run]: ns per scheduled-and-dispatched event. *)
let dispatch_ns () =
  let n = 100_000 in
  summarize
    (List.init samples (fun _ ->
         let e = Engine.create () in
         let t0 = wall () in
         for i = 1 to n do
           Engine.at e ~delay:(i land 1023) ignore
         done;
         ignore (Engine.run e);
         (wall () -. t0) *. 1e9 /. float_of_int n))

(* [Waitq.signal] -> [Waitq.wait]: ns per fiber hand-off, from a
   two-fiber ping-pong. *)
let switch_ns () =
  let n = 50_000 in
  summarize
    (List.init samples (fun _ ->
         let e = Engine.create () in
         let ping = Engine.Waitq.create () and pong = Engine.Waitq.create () in
         ignore
           (Engine.spawn e (fun () ->
                for _ = 1 to n do
                  Engine.Waitq.wait ping;
                  ignore (Engine.Waitq.signal pong ~engine:e ())
                done));
         ignore
           (Engine.spawn e (fun () ->
                for _ = 1 to n do
                  ignore (Engine.Waitq.signal ping ~engine:e ());
                  Engine.Waitq.wait pong
                done));
         let t0 = wall () in
         ignore (Engine.run e);
         (wall () -. t0) *. 1e9 /. float_of_int (2 * n)))

let obj i = Tabs_wal.Object_id.make ~segment:1 ~offset:(i * 8) ~length:8

(* Two write locks plus [release_family], in us, on a lock table
   already holding [entries] objects (entries are never removed). *)
let release_us ~entries =
  let module L = Tabs_lock.Lock_manager in
  in_fiber (fun e ->
      let lm = L.create e () in
      let seq = ref 0 in
      let tid () =
        incr seq;
        Tabs_wal.Tid.top ~node:0 ~seq:!seq
      in
      for i = 0 to entries - 1 do
        let t = tid () in
        ignore (L.lock lm t (obj i) Tabs_lock.Mode.Write ());
        L.release_family lm t
      done;
      let per_sample = max 5 (2_000_000 / max 1 entries) in
      summarize
        (List.init samples (fun s ->
             let t0 = wall () in
             for j = 1 to per_sample do
               let t = tid () in
               let k = (s * per_sample) + j in
               ignore (L.lock lm t (obj (k mod entries)) Tabs_lock.Mode.Write ());
               ignore (L.lock lm t (obj ((k * 7) mod entries)) Tabs_lock.Mode.Write ());
               L.release_family lm t
             done;
             (wall () -. t0) *. 1e6 /. float_of_int per_sample)))

(* [Record.encode] + [Log_manager.append] of a value-logging update, in
   ns; the log is forced (untimed) between batches. *)
let append_ns () =
  let e = Engine.create () in
  let log = Tabs_wal.Log_manager.attach e (Tabs_storage.Stable.create ()) in
  let batch = 2_000 in
  let old_value = String.make 8 'a' and new_value = String.make 8 'b' in
  in_fiber ~engine:e (fun _ ->
      summarize
        (List.init samples (fun s ->
             let t0 = wall () in
             for i = 1 to batch do
               let tid = Tabs_wal.Tid.top ~node:0 ~seq:((s * batch) + i) in
               let r =
                 Tabs_wal.Record.Update_value
                   { tid; obj = obj i; old_value; new_value; prev = None }
               in
               ignore (Tabs_wal.Record.encode r);
               ignore (Tabs_wal.Log_manager.append log r)
             done;
             let dt = wall () -. t0 in
             Tabs_wal.Log_manager.force_all log;
             dt *. 1e9 /. float_of_int batch)))

(* A demand-paging miss with a full frame table, in ns: reads cycle over
   twice as many pages as frames, so LRU misses on every access and
   each miss scans the table for its victim. *)
let fault_ns ~frames =
  let e = Engine.create () in
  let disk = Tabs_storage.Disk.create e in
  let pages = 2 * frames in
  Tabs_storage.Disk.ensure_segment disk 1 ~pages;
  let vm = Tabs_accent.Vm.attach e disk ~frames () in
  let page p = Tabs_wal.Object_id.make ~segment:1 ~offset:(p * Tabs_storage.Page.size) ~length:8 in
  in_fiber ~engine:e (fun _ ->
      for p = 0 to pages - 1 do
        ignore (Tabs_accent.Vm.read vm (page p) ~access:`Random)
      done;
      let per_sample = max 200 (200_000 / frames) in
      let next = ref 0 in
      summarize
        (List.init samples (fun _ ->
             let t0 = wall () in
             for _ = 1 to per_sample do
               ignore (Tabs_accent.Vm.read vm (page !next) ~access:`Random);
               next := (!next + 1) mod pages
             done;
             (wall () -. t0) *. 1e9 /. float_of_int per_sample)))
