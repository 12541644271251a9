(** Acyclicity of channel dependency graphs by Kahn's topological sort —
    the reference the trusted certificate ({!Analysis.Cert}) and the
    resumable DFS in {!Deadlock.Cycle} are tested against. It builds its
    CDGs with [lib/cdg]'s own {!Deadlock.Cdg.of_store}, so it is not
    independent of the layer assigner and never gates a swap. *)

(** [is_acyclic cdg] is [true] iff the CDG currently has no directed
    cycle. *)
val is_acyclic : Cdg.t -> bool

(** [layers_acyclic_store ?domains store ~layer_of_path ~num_layers]
    builds one CSR CDG per layer from the store ({!Cdg.of_store} with a
    layer filter) and checks each (paper Theorem 1 direction used:
    acyclic => deadlock-free). [layer_of_path] is indexed by pair id over
    the store's capacity; absent pairs carry [-1]. Layers are
    independent; [domains > 1] checks them on that many OCaml domains. *)
val layers_acyclic_store :
  ?domains:int -> Route_store.t -> layer_of_path:int array -> num_layers:int -> bool

(** Array-of-paths convenience form of {!layers_acyclic_store} (path [i]
    becomes pair id [i]). *)
val layers_acyclic :
  ?domains:int -> Graph.t -> paths:Path.t array -> layer_of_path:int array -> num_layers:int -> bool

(** [table_acyclic ?domains ft] walks every ordered terminal pair's route
    and checks every used layer with {!layers_acyclic_store}; [false]
    when some pair has no loop-free route. *)
val table_acyclic : ?domains:int -> Routing.Ftable.t -> bool
