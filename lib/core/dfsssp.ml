include Router
module Config = Config
module Registry = Registry
module Multipath = Multipath
(* The route arena lives in lib/cdg (the CDG layers sit below routing in
   the dependency order); alias it here so downstream users (bin/, bench/)
   reach it as [Dfsssp.Route_store] without depending on the [deadlock]
   library directly. *)
module Route_store = Deadlock.Route_store
