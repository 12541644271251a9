(** The one pipeline configuration: every setting a subnet manager picks
    for the routing engine, with one set of defaults. {!Router.route},
    {!Registry.all}, the experiment harness and the live fabric manager
    ([Fabric.Manager.config] is this record) all read it; nothing else
    carries these knobs.

    Only [batch] and [max_layers] change the tables a full build
    produces; [domains], [kernel] and [engine] change only the
    wall-clock. [algorithm], [layer_budget] and [repair_fraction] steer
    the fabric manager alone. *)

type t = {
  algorithm : string;
      (** registry name used for full recomputes (default ["dfsssp"]);
          only ["dfsssp"] has an incremental path — anything else makes
          every event a full recompute *)
  max_layers : int;  (** hard virtual-layer budget (hardware VLs) *)
  layer_budget : int;
      (** layers the incremental path may use before falling back to a
          full recompute (clamped to [max_layers]) *)
  repair_fraction : float;
      (** incremental repair only when at most this fraction of
          destinations is affected; above it, recompute everything *)
  batch : int;
      (** destinations per weight snapshot of the SSSP stage (the
          batched-snapshot pipeline, DESIGN.md section 12); 1 = the
          sequential recurrence. Changes the tables (still minimal,
          still balanced) *)
  domains : int;
      (** routing domains; the fabric manager holds a persistent worker
          pool when [> 1]. Never changes the tables, only the
          wall-clock *)
  kernel : Routing.Spf.kind;
      (** shortest-path kernel (DESIGN.md §15). Never changes the
          tables, only the wall-clock *)
  engine : Layers.engine;
      (** offline cycle-break engine (DESIGN.md section 17) *)
}

(** [{ algorithm = "dfsssp"; max_layers = 8; layer_budget = 8;
    repair_fraction = 0.5; batch = 1; domains = 1; kernel = Spf.Auto;
    engine = `Scc }]: 8 layers are the virtual lanes current InfiniBand
    hardware offers. *)
val default : t

(** [validate c] is [Ok c] unless [max_layers], [layer_budget], [batch]
    or [domains] is below 1, or [repair_fraction] is NaN or outside
    [[0, 1]]; the [Error] message names the field and its value. *)
val validate : t -> (t, string) result

(** Every field as a JSON object — the provenance stamp of a run. *)
val to_json : t -> Obs.Json.t
