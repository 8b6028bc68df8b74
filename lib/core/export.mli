(** CSV dumps of traces, for replotting the figures with external tools.
    Floats are written in their shortest round-trip spelling
    ({!Obs.Json.float_repr}), so parsing a file back gives the recorded
    values bit for bit. *)

(** Write a step series as [time,value] rows.
    @raise Sys_error on I/O failure. *)
val series_csv : path:string -> ?header:string * string -> Trace.Series.t -> unit

(** Write a departure log as [time,conn,kind,seq] rows. *)
val dep_log_csv : path:string -> Trace.Dep_log.t -> unit

(** Write a drop log as [time,conn,kind,seq,link] rows. *)
val drops_csv : path:string -> Trace.Drop_log.t -> unit

(** Dump the standard artifacts of a run under [dir] with a [prefix]:
    [<prefix>-q1.csv], [<prefix>-q2.csv], [<prefix>-cwnd<i>.csv],
    [<prefix>-drops.csv].  Creates [dir] if missing.  Returns the file
    names written. *)
val run_csv : dir:string -> prefix:string -> Runner.result -> string list
