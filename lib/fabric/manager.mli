(** The live fabric manager: an event-driven subnet-manager loop that owns
    a running fabric and its routing state, the way OpenSM owns an
    InfiniBand subnet. Feed it {!Event}s (or a whole {!Schedule}) and it
    converges after each one to forwarding tables that carry a
    deadlock-freedom certificate, preferring {e incremental} repair —
    recompute only the destinations whose forwarding trees the event
    touched ({!Repair}) — and falling back to a full
    SSSP-plus-cycle-breaking recompute when the incremental path exceeds
    its budgets or its candidate fails the swap gate. Tables advance by
    certified epoch swaps ({!Epoch}); {!Metrics} counts everything. *)

(** The pipeline configuration ({!Dfsssp.Config}): full recomputes read
    [algorithm], [max_layers], [batch], [domains], [kernel] and
    [engine]; incremental repairs read [kernel], [layer_budget] and
    [repair_fraction]. With [domains > 1] the manager holds a persistent
    worker pool for its whole lifetime (release with {!release}). *)
type config = Dfsssp.Config.t = {
  algorithm : string;
  max_layers : int;
  layer_budget : int;
  repair_fraction : float;
  batch : int;
  domains : int;
  kernel : Spf.kind;
  engine : Layers.engine;
}

(** {!Dfsssp.Config.default}. *)
val default_config : config

type action =
  | Incremental of {
      repaired : int;  (** destinations recomputed *)
      total : int;  (** destinations in the fabric *)
    }
  | Full of string  (** full recompute, with the reason *)
  | Noop

type outcome = {
  event : Event.t;
  applied : bool;  (** [false]: event rejected, topology unchanged *)
  action : action;
  fallback : bool;  (** incremental was attempted and abandoned *)
  epoch : int;  (** active epoch after the event *)
  verify : Epoch.verdict option;
      (** the swap gate's verdict on the swapped-in tables (certified
          layer count and hop stats); [None] when no swap happened (rejected event, no-op, or a failed recompute
          that left stale tables active — see [note]) *)
  table_diff : Ftable.diff option;
      (** forwarding-entry diff against the previous tables; [None]
          across structural rebuilds (ids re-assigned) *)
  note : string;  (** human-readable detail, [""] when all went well *)
  elapsed_s : float;
}

type t

(** [create g] routes the initial fabric and installs epoch 1. [Error] if
    the fabric cannot be routed deadlock-free within [max_layers], or has
    fewer than two terminals.
    @raise Invalid_argument with {!Dfsssp.Config.validate}'s message when
    [config] is invalid. *)
val create : ?config:config -> Graph.t -> (t, string) result

val config : t -> config

(** The fabric as the manager currently sees it. *)
val graph : t -> Graph.t

(** The active (last certified) forwarding tables. *)
val tables : t -> Ftable.t

val metrics : t -> Metrics.t
val epoch : t -> int
val epoch_history : t -> Epoch.entry list

(** All outcomes so far, oldest first — the manager's event log. *)
val event_log : t -> outcome list

(** [apply t ev] processes one topology event end to end: mutate the
    topology, repair or recompute routes, certify, swap. Never raises on
    fabric-level failures — inspect the outcome. *)
val apply : t -> Event.t -> outcome

(** [run t schedule] applies every event in order. *)
val run : t -> Schedule.t -> outcome list

(** [converged t] is [true] iff every applied, table-changing event so
    far ended in a certified swap (the convergence criterion of
    [fabric_tool manage]). *)
val converged : t -> bool

(** The current epoch's read-only export ({!Epoch.snapshot}): routes as
    arena slices, the arena the epoch's swap gate checked. The serving
    path of the controller daemon ({!Service.Server}). *)
val snapshot : t -> (Epoch.snapshot, string) result

(** [release t] shuts down the manager's routing-domain pool (a no-op
    when [domains = 1] or already released). The manager remains usable;
    later full recomputes simply run without a persistent pool. *)
val release : t -> unit

(** [shutdown t] is {!release} plus a flush of any installed trace sink —
    the teardown every exit path (clean, exception, signal handler) must
    reach so a dying process neither leaks domains nor truncates traces.
    Idempotent; the manager remains usable afterwards. *)
val shutdown : t -> unit

val pp_outcome : Format.formatter -> outcome -> unit

(** Metrics, fabric stats and what the active epoch's swap gate
    recorded (certified layers, hop stats, paths); re-walks nothing. *)
val pp_summary : Format.formatter -> t -> unit
