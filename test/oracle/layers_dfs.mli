(** The paper's original offline cycle breaking (Algorithm 2): find one
    cycle at a time with the resumable DFS of {!Deadlock.Cycle}, evict
    the heuristically chosen edge's routes to the next layer, resume.
    The oracle the shipped SCC-condensation engine
    ({!Deadlock.Layers.assign_store}) is validated against: same
    contract, layer counts within +1. *)

(** Per-stage seconds across all runs of this oracle, the split the
    SCC engine reports through its [layers.*] timers: cycle search,
    eviction, and CDG construction/compaction. *)
val condense : Obs.Timer.t

val evict : Obs.Timer.t
val rebuild : Obs.Timer.t

(** [assign_store store ~max_layers ~heuristic] distributes every present
    pair of [store] over at most [max_layers] layers with acyclic CDGs.
    [cycles_broken] counts the cycles found and broken; [layer_of_path]
    is [-1] on absent pairs. [Error] if a cycle survives in the last
    allowed layer.
    @raise Invalid_argument if [max_layers < 1]. *)
val assign_store :
  Route_store.t -> max_layers:int -> heuristic:Heuristic.t -> (Layers.outcome, string) result

(** [assign g ~paths ~max_layers ~heuristic] is {!assign_store} over a
    store holding path [i] under pair id [i]. *)
val assign :
  Graph.t ->
  paths:Path.t array ->
  max_layers:int ->
  heuristic:Heuristic.t ->
  (Layers.outcome, string) result

(** [route ?max_layers g] is DFSSSP with this oracle as the break
    engine: the sequential SSSP tables, cycle-broken under the
    [Weakest] heuristic (default [max_layers] 8). *)
val route : ?max_layers:int -> Graph.t -> (Routing.Ftable.t, string) result
