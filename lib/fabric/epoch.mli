(** Epoch-based certified table swaps — the manager's safety gate. The
    active forwarding tables only ever advance to a candidate whose
    fabric admits its layer budget ({!Analysis.Existence}), whose every
    terminal pair has a loop-free route, and which carries a
    deadlock-freedom certificate accepted by the trusted checker
    ({!Analysis.Analyzer.certify_store} — a per-layer topological
    witness validated independently of every piece of construction
    code). The certificate is the gate's one deadlock proof. The checks
    read one arena of the candidate's routes, walked once per swap by
    the analysis side's own {!Analysis.Cert.artifacts_of_table}, from
    which {!Ftable.validate_store} also takes the hop statistics; on
    success the same arena becomes the epoch's {!snapshot}. A rejected
    candidate leaves the active epoch and its snapshot untouched,
    exactly like a subnet manager that keeps serving the old LFTs until
    the new ones check out. *)

type entry = {
  epoch : int;
  label : string;  (** what produced this epoch, e.g. ["down 42 (incremental)"] *)
  verify_s : float;
}

(** What the gate recorded about an admitted candidate. *)
type verdict = {
  stats : Ftable.stats;  (** hop statistics over every routed pair *)
  certified_layers : int;  (** layers the accepted certificate covers *)
}

(** A read-only export of one epoch's routing state: the certified tables
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
  verdict : verdict;  (** the gate's record of this epoch's tables *)
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
    once (timer and span [fabric.materialise]), certifies them, collects
    their hop statistics and, on success, installs the candidate and
    that arena as the next epoch and its snapshot. Always returns the gate's wall time,
    materialization included; [Error] means the active tables and
    snapshot were kept. Refusals are prefixed by the gate that made
    them: ["existence:"] (layer budget below the fabric's provable
    minimum), ["incomplete routing:"] (some pair has no loop-free route),
    ["certificate:"] (the trusted checker found no witness). *)
val try_swap : t -> label:string -> Ftable.t -> (verdict, string) result * float
