(** Routing-runtime experiments: the paper's Fig. 7 (k-ary n-tree sweep)
    and Fig. 8 (real systems). Wall-clock seconds to compute the complete
    routing (tables plus, where applicable, the virtual-layer
    assignment).

    [config] (default {!Dfsssp.Config.default}, the sequential
    recurrence) is the pipeline every algorithm runs under; with
    [batch > 1] the supporting engines snapshot weights per batch and
    spread each batch over [domains], and a note records the setting. *)

val fig7 : ?max_endpoints:int -> ?config:Dfsssp.Config.t -> unit -> Report.table

val fig8 : ?scale:int -> ?config:Dfsssp.Config.t -> unit -> Report.table
