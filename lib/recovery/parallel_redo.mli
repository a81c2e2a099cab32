(** Graph-bounded parallel redo.

    Crash recovery's redo work is mostly independent: updates to
    different pages never conflict, and updates to the same page are
    ordered by their position in the log. Dependency records (the third
    logging technique) add the only cross-page constraints — an
    operation that read or overwrote another transaction family's
    object must be redone after that object's previous writer.

    This module turns an analysis scan's record array into three
    scheduling graphs, each built by the same per-page chain rule (a
    member is ordered after the previous member in pop order that
    shares a page with it):

    - the {e operation phase} mirrors the serial forward redo pass:
      per-page chains plus the dependency-record edges between
      operation records;
    - the {e value phase} mirrors the serial backward pass, drained
      newest-first. Value-logged objects fit one page, so two records
      for the same object are always chained and no cross-page edge is
      ever needed; dependency records never constrain this phase;
    - the {e undo phase} mirrors the serial backward undo pass over the
      losers' operation records, newest-first. Eager recovery keeps
      undo serial; instant restart replays it per page.

    Each phase's ready queue releases a record only when all its
    predecessors have been applied, and pops ready records in serial
    pass order (ascending LSN for operations, descending for values).
    With a single fiber the schedule is therefore {e exactly} the
    serial pass, record for record; with more fibers, records on
    different chains overlap in virtual time and replay finishes in
    roughly critical-path rather than total-work time. *)

type config = { fibers : int }

val default : config

type stats = {
  op_records : int;  (** operation records scheduled in the redo phase *)
  value_records : int;  (** value records scheduled in the backward phase *)
  chain_edges : int;  (** same-page ordering edges across both redo phases *)
  dep_edges : int;
      (** cross-page edges contributed by dependency records (operation
          phase only; dangling predecessors below the scan anchor are
          dropped — their effects are provably on disk) *)
  critical_path : int;
      (** longest chain of ordering edges, operation and value phases
          summed — the lower bound, in records, on parallel replay *)
  width : int;
      (** largest antichain level: how many records could be in flight
          at once given unlimited fibers *)
}

(** One phase graph. Members are indices into the records array passed
    to {!build}, in log order; positions index [members]. *)
type phase

type t = { op : phase; value : phase; undo : phase }

(** [build ~loser records] constructs the three phase graphs from an
    analysis scan's [(lsn, record)] array; [loser tid] selects the
    operation records the undo phase rolls back. Pure bookkeeping:
    charges nothing. *)
val build :
  loser:(Tabs_wal.Tid.t -> bool) ->
  (Tabs_wal.Record.lsn * Tabs_wal.Record.t) array ->
  t

(** Shape of the redo phases (operation and value); the undo phase is
    not counted. *)
val stats : t -> stats

(** The pages a logged update covers; [[]] for any other record. *)
val pages : Tabs_wal.Record.t -> Tabs_storage.Disk.page_id list

(** [members p] — the phase's record indices, in log order. *)
val members : phase -> int array

(** [closure p seeds] — the predecessor closure of the member positions
    [seeds], in the phase's pop order (ascending LSN for operations,
    descending for values and undo). Applying it in that order respects
    every edge: instant restart replays one page's chain this way. *)
val closure : phase -> int list -> int list

(** [run engine ~node ~fibers p ~apply] drains phase [p] over [fibers]
    worker fibers spawned on [node]; [apply i] is called with the index
    into the original records array once record [i]'s predecessors have
    all been applied, ready records popping in the phase's pop order.
    Returns when every member has been applied. Must run inside a
    fiber. *)
val run :
  Tabs_sim.Engine.t ->
  node:int ->
  fibers:int ->
  phase ->
  apply:(int -> unit) ->
  unit
