(** Background checkpoint and log-reclamation daemon.

    One fiber per node, the same shape as {!Group_commit}: it parks on a
    wait queue so the simulation can quiesce, and forward log traffic
    pokes it back awake once per [interval] of virtual time. Each cycle
    it

    + trickle-writes up to [trickle] dirty pages, oldest recovery LSN
      first (the pages holding the truncation floor down the longest);
    + hands over to the Recovery Manager, which takes a fuzzy
      checkpoint (no flushing beyond the trickle, just the dirty-page
      and active-transaction tables) and truncates the log under its
      one floor rule: keep everything from [min (checkpoint LSN, oldest
      dirty recovery LSN, oldest live chain first LSN, its reclamation
      floor)].

    This replaces the flush-the-world path of
    {!Recovery_mgr.maybe_reclaim} on nodes that enable it (see
    [?checkpointing] on {!Recovery_mgr.create}): foreground transactions
    never pay for a [Vm.flush_all] again, and restart analysis is
    bounded by the checkpoint distance instead of the log length. Off by
    default — the Section 5 measurements are unperturbed. *)

type t

type config = {
  interval : int;  (** minimum virtual microseconds between cycles *)
  trickle : int;  (** dirty pages written back per cycle *)
}

(** 500 ms between checkpoints, 8 pages per cycle. *)
val default : config

(** Trace events: one trickle write-back burst, and one log truncation
    with how many records it reclaimed. *)
type Tabs_sim.Trace.event +=
  | Rm_writeback of { node : int; pages : int; oldest_rec_lsn : int }
  | Rm_reclaimed of {
      node : int;
      keep_from : Tabs_wal.Record.lsn;
      records : int;
    }

(** [create engine ~node ~vm ~reclaim config] spawns the daemon fiber.
    [reclaim] is the Recovery Manager's checkpoint-and-truncate step
    (passed as a closure — the Recovery Manager owns the daemon); it
    returns the truncation point and how many records it dropped. *)
val create :
  Tabs_sim.Engine.t ->
  node:int ->
  vm:Tabs_accent.Vm.t ->
  reclaim:(unit -> Tabs_wal.Record.lsn * int) ->
  config ->
  t

(** [hold t true] makes the daemon skip its cycles until [hold t false].
    Restart recovery holds it: until the log's chain table is restored,
    a cycle would see no live chains, truncate in-doubt undo records,
    and write a checkpoint missing the prepared set. *)
val hold : t -> bool -> unit

(** [poke t] wakes the daemon if at least [interval] has passed since
    its last cycle — called from forward processing, costs nothing. *)
val poke : t -> unit

(** [request t] forces a cycle regardless of the interval — the
    log-space-limit path. Never blocks the caller. *)
val request : t -> unit

val config : t -> config

(** Cycles completed, pages trickled out, and log records reclaimed so
    far — statistics for tests and benchmarks. *)
val cycles : t -> int

val pages_written : t -> int

val reclaimed : t -> int
