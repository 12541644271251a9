(** Uniform access to every routing algorithm the paper compares
    (its Figs. 4–8): MinHop, SSSP, Up*/Down*, FatTree, LASH, DOR, DFSSSP
    (offline and online). Each entry may refuse fabrics it does not
    support — a refusal is the paper's "missing bar". *)

type algorithm = {
  name : string;
  deadlock_free_by_design : bool;
  run : Graph.t -> (Ftable.t, string) result;
}

(** The paper's line-up, in its Fig. 4 legend order:
    MinHop, Up*/Down*, FatTree, DOR, LASH, SSSP, DFSSSP.
    [coords] enables DOR on grid fabrics; without it DOR refuses.
    [config] (default {!Config.default}) supplies [max_layers] to the
    layered engines, [batch]/[domains] (DESIGN.md section 12) to the
    engines with a batched-snapshot pipeline, [kernel] (DESIGN.md §15)
    to those that compute shortest paths and [engine] (DESIGN.md
    section 17) to DFSSSP and the hardened variants. *)
val all : ?coords:Coords.t -> ?config:Config.t -> unit -> algorithm list

(** [find ?coords ?config name] is case-insensitive; accepts
    "dfsssp-online" for the online variant. *)
val find : ?coords:Coords.t -> ?config:Config.t -> string -> algorithm option

val names : string list
