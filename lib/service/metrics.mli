(** Operational telemetry of the controller daemon, on {!Obs} primitives
    in a per-server registry — what an operator scrapes to see whether
    the service is keeping up or shedding load. *)

type t = {
  registry : Obs.Registry.t;
  connections : Obs.Counter.t;  (** accepted *)
  disconnects : Obs.Counter.t;
  requests : Obs.Counter.t;  (** complete frames handled *)
  route_queries : Obs.Counter.t;
  route_errors : Obs.Counter.t;  (** unroutable / bad ids *)
  events_enqueued : Obs.Counter.t;  (** admitted into the event queue *)
  events_applied : Obs.Counter.t;
  event_batches : Obs.Counter.t;  (** batches handed to the control domain *)
  busy_replies : Obs.Counter.t;  (** load shed: admission queue full *)
  bad_requests : Obs.Counter.t;  (** unparseable / unknown / refused frames *)
  bytes_in : Obs.Counter.t;
  bytes_out : Obs.Counter.t;
  queue_depth : Obs.Counter.t;  (** gauge: events admitted and not yet answered (queued plus in flight) *)
  queue_peak : Obs.Counter.t;  (** gauge: high-water mark of the queue *)
  route_s : Obs.Timer.t;  (** per-query serve time *)
  apply_s : Obs.Timer.t;  (** per-event manager step time *)
  reads_during_apply : Obs.Counter.t;
      (** route queries answered while the control domain held a batch *)
}

val create : unit -> t

(** Snapshot of the per-server registry. *)
val to_json : t -> Obs.Json.t
