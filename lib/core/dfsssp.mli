(** Deadlock-free single-source-shortest-path routing (DFSSSP) — the
    public API of this library. [Dfsssp.route] computes globally-balanced
    minimal routes (SSSP) and partitions them over virtual layers so every
    layer's channel dependency graph is acyclic, which the trusted
    checker ({!Analysis.Analyzer.certify}) proves for any table;
    {!Registry} exposes the paper's full algorithm line-up under one
    interface. *)

include module type of struct
  include Router
end

module Registry : module type of Registry

module Multipath : module type of Multipath

module Route_store : module type of Deadlock.Route_store
