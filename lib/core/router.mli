(** DFSSSP route computation engine (see {!Dfsssp} for the public umbrella). — the
    paper's contribution. SSSP's globally-balanced minimal routes are kept
    unchanged; deadlock freedom is obtained purely by partitioning the
    routes over virtual layers so that each layer's channel dependency
    graph is acyclic (the APP problem), using the offline cycle-breaking
    of Algorithm 2 by default.

    {[
      let fabric = Netgraph.Topo_torus.torus ~dims:[|4;4|] ~terminals_per_switch:2 |> fst in
      match Dfsssp.route fabric with
      | Ok ft ->
        Format.printf "virtual layers needed: %d@." (Routing.Ftable.num_layers ft)
      | Error e -> prerr_endline (Dfsssp.error_to_string e)
    ]} *)

type variant =
  | Offline  (** Algorithm 2: one amortized cycle sweep per layer (default) *)
  | Online  (** LASH-style path-at-a-time placement on SSSP routes *)

type error =
  | Routing_failed of string  (** SSSP could not route (disconnected fabric) *)
  | Layers_exhausted of string  (** no deadlock-free assignment within [max_layers] *)

val error_to_string : error -> string

(** [route ?config ?variant ?heuristic ?balance g] routes the fabric
    deadlock-free.

    - [config] (default {!Config.default}) supplies the pipeline
      settings: [max_layers] bounds the layers (the paper's failed bars
      are [Layers_exhausted]), [batch]/[domains] select
      {!Routing.Sssp}'s batched-snapshot pipeline for the SSSP stage
      (DESIGN.md section 12; [domains] also fans the [`Scc] break
      planning out across components), [kernel] the shortest-path core
      (DESIGN.md §15) and [engine] the offline cycle-break engine
      (DESIGN.md section 17). Only [batch] and [max_layers] can change
      the tables.
    - [variant] (default [Offline]) selects the layer-assignment engine.
    - [heuristic] (default {!Cdg.Heuristic.Weakest}) picks the cycle edge
      to evict (offline variant only).
    - [balance] (default [false]) additionally spreads routes over the
      unused layers afterwards (the tail of Algorithm 2). The reported
      {!Routing.Ftable.num_layers} remains the number {e required}.
    - [pool] lends the SSSP stage a persistent worker pool.

    The result carries per-route layers; every successful result carries
    a deadlock-freedom certificate ({!Analysis.Analyzer.certify}). *)
val route :
  ?config:Config.t ->
  ?variant:variant ->
  ?heuristic:Heuristic.t ->
  ?balance:bool ->
  ?pool:Routing.Sssp.pool ->
  Graph.t ->
  (Ftable.t, error) result

(** [layers_required ?config ?variant ?heuristic g] is the virtual layer
    count alone (the quantity of the paper's Figs. 9/10). *)
val layers_required :
  ?config:Config.t -> ?variant:variant -> ?heuristic:Heuristic.t -> Graph.t -> (int, error) result

(** [assign_layers ?config ?variant ?heuristic ?balance ft] applies the
    cycle-breaking layer assignment to an {e existing} routing — any
    oblivious routing (DOR on a torus, MinHop on an irregular fabric)
    becomes deadlock-free this way, not only SSSP; the APP machinery is
    routing-agnostic. Overwrites [ft]'s layer table in place and returns
    it. Reads [max_layers], [engine] and [domains] from [config] as
    {!route} does. *)
val assign_layers :
  ?config:Config.t ->
  ?variant:variant ->
  ?heuristic:Heuristic.t ->
  ?balance:bool ->
  Ftable.t ->
  (Ftable.t, error) result

(** [route_min_layers ?config g] runs the offline assignment under every
    heuristic and keeps the result using the fewest virtual layers (APP
    is NP-complete, so no single heuristic dominates — paper Section
    IV). Returns the winning table and its heuristic.

    [config.domains > 1] runs the heuristics concurrently (each inner
    route stays single-domain); the winner — by (layers, heuristic
    order) — is identical to the sequential scan's. *)
val route_min_layers : ?config:Config.t -> Graph.t -> (Ftable.t * Heuristic.t, error) result
