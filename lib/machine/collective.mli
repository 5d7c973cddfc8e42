(** Remap planning for the scheduler's collective sites: the
    data-movement plan and the per-processor cost formula, behind one
    {!Eff.remap_summary} so the scheduler never sees element moves. *)

val remap_cost : alpha:float -> beta:float -> Eff.remap_summary -> int -> float
(** Release cost of a remap for processor [p]: one message startup per
    partner pair plus the per-byte cost of bytes sent and received;
    [0.0] for mark-only remaps. *)

val plan_remap :
  nprocs:int -> word_bytes:int ->
  objs:Storage.array_obj option array ->
  obj0:Storage.array_obj ->
  new_layout:Layout.t -> move:bool -> Eff.remap_summary
(** Perform a redistribution's global data movement (plan element moves
    under the old layout, switch every processor's layout, apply the
    copies) and return the summary the scheduler's accounting consumes.
    [objs] must hold every processor's copy; [obj0] is processor 0's. *)
