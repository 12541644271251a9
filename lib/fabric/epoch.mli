(** Epoch-based verified table swaps — the manager's safety gate. The
    active forwarding tables only ever advance to a candidate that (1)
    carries a deadlock-freedom certificate accepted by the trusted
    checker ({!Analysis.Analyzer.certify_store} — a per-layer
    topological witness validated independently of every piece of
    construction code) and (2) passed the full verifier
    ({!Dfsssp.Verify.report_store}: completeness over every terminal
    pair, per-layer CDG acyclicity). Both read one arena of the
    candidate's routes, walked once per swap by the analysis side's own
    {!Analysis.Cert.artifacts_of_table}; on success the same arena
    becomes the epoch's {!snapshot}. A rejected candidate leaves the
    active epoch and its snapshot untouched, exactly like a subnet
    manager that keeps serving the old LFTs until the new ones check
    out. *)

type entry = {
  epoch : int;
  label : string;  (** what produced this epoch, e.g. ["down 42 (incremental)"] *)
  verify_s : float;
}

(** A read-only export of one epoch's routing state: the verified tables
    plus their routes materialized once into a {!Route_store} arena, so
    route queries resolve as O(1) slices of a flat buffer with no
    per-query path allocation. The arena is the one the swap gate
    checked, so the snapshot serves exactly the paths that were
    certified. Snapshots are immutable — a swap installs a {e new}
    snapshot and never mutates an exported one, so readers holding a
    snapshot across a swap keep reading a consistent epoch until they
    drop it (graceful drain, courtesy of the GC). *)
type snapshot = {
  snap_epoch : int;
  tables : Ftable.t;  (** the tables this epoch serves *)
  store : Route_store.t;  (** every ordered terminal pair's path, arena form *)
  num_layers : int;  (** layer count of [tables] at snapshot time *)
}

type t

(** No active tables, epoch 0. *)
val create : unit -> t

val epoch : t -> int

(** The tables currently being served, if any epoch was installed. *)
val active : t -> Ftable.t option

(** Installed epochs, oldest first. *)
val history : t -> entry list

(** [snapshot t] is the current epoch's read-only export. It is
    installed by the {!try_swap} that opened the epoch — the arena the
    gate checked, so asking for it costs nothing — and replaced only by
    the next successful swap. [Error] only when no epoch is active. *)
val snapshot : t -> (snapshot, string) result

(** [try_swap t ~label candidate] materializes [candidate]'s routes
    once (timer and span [fabric.materialise]), certifies and verifies
    them and, on success, installs the candidate and that arena as the
    next epoch and its snapshot. Always returns the gate's wall time,
    materialization included; [Error] means the active tables and
    snapshot were kept. Refusals are prefixed by the gate that made
    them: ["existence:"] (layer budget below the fabric's provable
    minimum), ["incomplete routing:"] (some pair has no loop-free route),
    ["certificate:"] (the trusted checker found no witness). *)
val try_swap :
  t -> label:string -> Ftable.t -> (Dfsssp.Verify.report, string) result * float
