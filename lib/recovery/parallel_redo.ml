open Tabs_sim
open Tabs_storage
open Tabs_wal

type config = { fibers : int }

let default = { fibers = 8 }

type stats = {
  op_records : int;
  value_records : int;
  chain_edges : int;
  dep_edges : int;
  critical_path : int;
  width : int;
}

(* One scheduling graph. [members] are indices into the analysis record
   array in log order; edges and priorities are expressed in member
   positions. Every edge goes from a lower to a higher priority, so the
   graph is acyclic by construction and a priority-ordered ready queue
   can never deadlock. *)
type phase = {
  members : int array;
  succs : int list array;
  preds : int list array;
  prio : int array;  (* pop order: lower pops first; a permutation *)
  chain_edges : int;
  dep_edges : int;
  depth : int;  (* longest edge chain, in records *)
  width : int;
}

type t = { op : phase; value : phase; undo : phase }

(* Binary min-heap of member positions keyed by [prio]. Priorities are
   a permutation, so there are no ties to break. *)
module Heap = struct
  type t = { mutable n : int; data : int array; prio : int array }

  let create cap prio = { n = 0; data = Array.make (max 1 cap) 0; prio }

  let push h pos =
    h.data.(h.n) <- pos;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0 && h.prio.(h.data.((!i - 1) / 2)) > h.prio.(h.data.(!i))
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.data.(0) in
      h.n <- h.n - 1;
      h.data.(0) <- h.data.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.n && h.prio.(h.data.(l)) < h.prio.(h.data.(!smallest)) then
          smallest := l;
        if r < h.n && h.prio.(h.data.(r)) < h.prio.(h.data.(!smallest)) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

(* Longest-path depth and maximum level width of a phase, walking
   members in priority (= topological) order. *)
let measure ~succs ~order =
  let m = Array.length succs in
  if m = 0 then (0, 0)
  else begin
    let level = Array.make m 1 in
    Array.iter
      (fun pos ->
        List.iter
          (fun s -> if level.(s) < level.(pos) + 1 then level.(s) <- level.(pos) + 1)
          succs.(pos))
      order;
    let depth = Array.fold_left max 1 level in
    let per_level = Array.make (depth + 1) 0 in
    Array.iter (fun l -> per_level.(l) <- per_level.(l) + 1) level;
    (depth, Array.fold_left max 0 per_level)
  end

let pages = function
  | Record.Update_operation u -> u.pages
  | Record.Update_value u -> Object_id.pages u.obj
  | _ -> []

let build ~loser records =
  let n = Array.length records in
  let op_list = ref [] and value_list = ref [] and undo_list = ref [] in
  for i = n - 1 downto 0 do
    match snd records.(i) with
    | Record.Update_operation u ->
        op_list := i :: !op_list;
        if loser u.tid then undo_list := i :: !undo_list
    | Record.Update_value _ -> value_list := i :: !value_list
    | _ -> ()
  done;
  let add_edge p a b =
    (* consecutive multi-page records can share several pages; one
       ordering edge between a pair is enough *)
    if a <> b && not (List.mem b p.succs.(a)) then begin
      p.succs.(a) <- b :: p.succs.(a);
      p.preds.(b) <- a :: p.preds.(b);
      true
    end
    else false
  in
  (* A phase over [members] with its per-page chains: each member is
     ordered after the previous member in pop order that shares a page
     with it. Operations pop forward; values and loser undo pop
     newest-first. *)
  let chained members ~newest_first =
    let m = Array.length members in
    let at k = if newest_first then m - 1 - k else k in
    let p =
      {
        members;
        succs = Array.make m [];
        preds = Array.make m [];
        prio = Array.init m at;
        chain_edges = 0;
        dep_edges = 0;
        depth = 0;
        width = 0;
      }
    in
    let edges = ref 0 in
    let last_on_page : (Disk.page_id, int) Hashtbl.t = Hashtbl.create 64 in
    for k = 0 to m - 1 do
      let pos = at k in
      List.iter
        (fun pid ->
          (match Hashtbl.find_opt last_on_page pid with
          | Some prev -> if add_edge p prev pos then incr edges
          | None -> ());
          Hashtbl.replace last_on_page pid pos)
        (pages (snd records.(members.(pos))))
    done;
    { p with chain_edges = !edges }
  in
  let measured p =
    let order = Array.make (Array.length p.members) 0 in
    Array.iteri (fun pos k -> order.(k) <- pos) p.prio;
    let depth, width = measure ~succs:p.succs ~order in
    { p with depth; width }
  in
  (* Operation phase: chains plus the dependency edges between
     operation records. *)
  let op = chained (Array.of_list !op_list) ~newest_first:false in
  let op_pos_of_lsn = Hashtbl.create (max 16 (Array.length op.members)) in
  Array.iteri
    (fun pos i -> Hashtbl.replace op_pos_of_lsn (fst records.(i)) pos)
    op.members;
  let dep_edges = ref 0 in
  Array.iter
    (fun (_, record) ->
      match record with
      | Record.Dependency d -> (
          match Hashtbl.find_opt op_pos_of_lsn d.update_lsn with
          | None -> ()
          | Some upos ->
              List.iter
                (fun (_, pred_lsn) ->
                  match Hashtbl.find_opt op_pos_of_lsn pred_lsn with
                  | Some ppos when ppos < upos ->
                      if add_edge op ppos upos then incr dep_edges
                  | Some _ | None ->
                      (* predecessor below the scan anchor (or a value
                         record): its effect is already on stable disk,
                         or the value phase orders it — nothing to
                         schedule against *)
                      ())
                d.preds)
      | _ -> ())
    records;
  (* A value-logged object fits one page, so same-object value records
     always share a chain. Loser undo is the serial backward undo pass
     as a graph: instant restart replays it per page. *)
  {
    op = measured { op with dep_edges = !dep_edges };
    value = measured (chained (Array.of_list !value_list) ~newest_first:true);
    undo = chained (Array.of_list !undo_list) ~newest_first:true;
  }

let members p = p.members

(* Predecessor closure of [seeds], in pop order: applying it in this
   order respects every edge of the phase. *)
let closure p seeds =
  let seen = Hashtbl.create 32 in
  let rec visit pos =
    if not (Hashtbl.mem seen pos) then begin
      Hashtbl.add seen pos ();
      List.iter visit p.preds.(pos)
    end
  in
  List.iter visit seeds;
  Hashtbl.fold (fun pos () acc -> pos :: acc) seen []
  |> List.sort (fun a b -> compare p.prio.(a) p.prio.(b))

let stats t =
  {
    op_records = Array.length t.op.members;
    value_records = Array.length t.value.members;
    chain_edges = t.op.chain_edges + t.value.chain_edges;
    dep_edges = t.op.dep_edges;
    critical_path = t.op.depth + t.value.depth;
    width = max t.op.width t.value.width;
  }

(* Drain one phase over [fibers] workers. The heap and in-degree
   updates happen between fiber suspension points, so no further
   synchronization is needed: the simulator's fibers are cooperative.
   All edges point from lower to higher priority, so the lowest-
   priority unapplied record always has in-degree zero — the heap can
   only be empty mid-phase while some worker is still applying, and
   that worker's completion signals the idle queue. *)
let run engine ~node ~fibers p ~apply =
  let m = Array.length p.members in
  if m > 0 then begin
    let indeg = Array.map List.length p.preds in
    let heap = Heap.create m p.prio in
    Array.iteri (fun pos d -> if d = 0 then Heap.push heap pos) indeg;
    let remaining = ref m in
    let idle : unit Engine.Waitq.t = Engine.Waitq.create () in
    let finished : unit Engine.Waitq.t = Engine.Waitq.create () in
    let workers = max 1 fibers in
    let live = ref workers in
    let rec worker () =
      if !remaining > 0 then
        match Heap.pop heap with
        | Some pos ->
            apply p.members.(pos);
            decr remaining;
            List.iter
              (fun s ->
                indeg.(s) <- indeg.(s) - 1;
                if indeg.(s) = 0 then begin
                  Heap.push heap s;
                  ignore (Engine.Waitq.signal idle ~engine ())
                end)
              p.succs.(pos);
            if !remaining = 0 then
              ignore (Engine.Waitq.signal_all idle ~engine ());
            worker ()
        | None ->
            Engine.Waitq.wait idle;
            worker ()
    in
    for _ = 1 to workers do
      ignore
        (Engine.spawn engine ~node (fun () ->
             worker ();
             decr live;
             if !live = 0 then
               ignore (Engine.Waitq.signal finished ~engine ())))
    done;
    Engine.Waitq.wait finished
  end
