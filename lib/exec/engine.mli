(** Aliases kept so that the benchmark ledger keeps compiling; nothing
    else calls this module. Queries fan out in
    {!Query.Physical.execute_measured} and integration in
    {!Integration.Multi.integrate}, each through its [?sharded]
    argument. *)

val execute :
  Query.Physical.sharded ->
  ?ctx:Query.Physical.ctx ->
  Query.Eval.env ->
  Query.Physical.t ->
  Erm.Relation.t
(** [execute cfg ?ctx env plan] is
    [Query.Physical.execute ?ctx ~sharded:cfg env plan]. *)

val reset_scan_cache : unit -> unit
(** {!Query.Physical.reset_scan_cache}. *)

val install : unit -> unit
(** Does nothing: the physical executor needs no registration. *)

val integrate :
  Query.Physical.sharded ->
  ?policy:Dst.Rule.policy ->
  ?discount:bool ->
  ?alpha_floor:float ->
  ?prior:(string * float) list ->
  Integration.Multi.source list ->
  Integration.Multi.report
(** [integrate cfg] is [Integration.Multi.integrate ~sharded:cfg]. *)
