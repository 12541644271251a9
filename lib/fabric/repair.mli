(** Incremental route repair: after an id-stable topology event, recompute
    only the destinations whose forwarding trees the event touched,
    instead of the full [|T|]-destination SSSP + cycle-breaking run.

    Soundness rests on two properties of the surrounding machinery:
    - routing is destination-based, so a destination whose tree avoids
      every failed channel keeps a valid tree verbatim;
    - layer assignment is per (src, dst) route, so kept routes keep their
      layers and only re-routed pairs need re-placement — their new
      dependencies are probed online against per-layer CDGs seeded with
      the kept routes (LASH-style), which re-runs cycle breaking only on
      the layers the new routes actually touch.

    Every patched table still goes through the full swap gate
    ({!Epoch.try_swap}: existence, completeness, certificate) before the
    manager swaps it in. *)

(** [affected_destinations ft ~channels] is the terminals whose forwarding
    tree in [ft] uses any channel in [channels] — the destinations that
    must be re-routed when those channels fail. *)
val affected_destinations : Ftable.t -> channels:int list -> int list

(** [beneficiary_destinations ~old_graph ~graph ~restored] is the
    terminals whose hop distance from either endpoint of a restored cable
    improved — the destinations worth re-routing to exploit a link that
    came back (existing routes stay valid on a restore; this is an
    optimization set, not a correctness set). *)
val beneficiary_destinations : old_graph:Graph.t -> graph:Graph.t -> restored:int list -> int list

type patched = {
  table : Ftable.t;
  layers_used : int;
}

(** [patch ?config ~graph ~old ~dsts ~weights ()] builds a fresh table
    on [graph] (which must share node/channel ids with [old]'s fabric):
    forwarding trees and layers of destinations outside [dsts] are copied
    verbatim; each destination in [dsts] is re-routed with one
    {!Sssp.route_destination} step over the shared [weights] state
    (mutated in place) and its routes re-placed into the lowest acyclic
    layer. The layer budget is [config]'s [layer_budget] clamped to its
    [max_layers] (default {!Dfsssp.Config.default}). Fails — leaving the
    caller to fall back to a full recompute — if a placement needs more
    layers than the budget, or the existing assignment already exceeds
    it. [config]'s [kernel] selects the shortest-path core of the repair
    steps (DESIGN.md §15) and never changes the resulting table.
    @raise Invalid_argument if the layer budget is below 1. *)
val patch :
  ?config:Dfsssp.Config.t ->
  graph:Graph.t ->
  old:Ftable.t ->
  dsts:int list ->
  weights:int array ->
  unit ->
  (patched, string) result
