(* One benchmark job: the public layer calls that [fdc run], or [fdc
   check] followed by [fdc cost], make for one source, in the order the
   CLI makes them.  Each call can be wrapped in a span, so the benchmark
   times every layer from outside the program.  A job's output is
   reduced to a digest and a set of counters; the digest is what must
   repeat exactly. *)

open Fd_core
open Fd_machine
module Json = Fd_support.Json
module Finding = Fd_verify.Finding

type span = {
  layer : string;
  t0 : float;  (** wall clock, seconds *)
  t1 : float;
  alloc : float;  (** bytes allocated during the call ([Gc] delta) *)
}

(* Spans of the job being run, newest first; [None] runs untraced. *)
type tracer = span list ref option

(* The [verify] and [cost] passes do nothing in a job ([fdc check] and
   [fdc cost] call [Verify] and [Cost] themselves, below): they run, so
   the job runs the shipped pass list, but untimed. *)
let timed_pass (p : Pass.t) = not (List.mem p.Pass.p_name [ "verify"; "cost" ])
let timed_passes = List.filter timed_pass Pipeline.passes

let layers =
  List.map (fun (p : Pass.t) -> "pass." ^ p.Pass.p_name) timed_passes
  @ [ "verify.lint"; "verify.check"; "cost.profile"; "cost.analyze";
      "machine.simulate"; "machine.seq_ref"; "machine.gather" ]

let call (tr : tracer) layer f =
  match tr with
  | None -> f ()
  | Some spans ->
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    spans := { layer; t0; t1; alloc = Gc.allocated_bytes () -. a0 } :: !spans;
    r

type outcome = {
  digest : string;
  failure : string option;  (** why the job's output is not correct *)
  counters : (string * float) list;
}

(* Per-layer wall cap: a hang becomes a counted failure.  [Cost.analyze],
   [Seq_interp.run] and the passes take no budget. *)
let budget = Fd_support.Budget.make ~wall:60.0 ()

let opts_of (s : Workload.spec) =
  { Options.default with Options.nprocs = s.Workload.nprocs;
    strategy = s.Workload.strategy }

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Back the lint's reaching-decomposition query with the interprocedural
   analysis, exactly as [fdc check] does. *)
let reaching_hook cp =
  match Reaching_decomps.compute (Fd_callgraph.Acg.build cp) with
  | rd ->
    Some
      (fun ~uname ~sid array ->
        match Reaching_decomps.local_of rd uname with
        | lr ->
          let fact = Reaching_decomps.fact_before lr sid in
          not
            (Decomp.reaching_equal
               (Reaching_decomps.get_reaching fact array)
               Decomp.reaching_bottom)
        | exception _ -> true)
  | exception _ -> None

let check_findings (vr : Fd_verify.Verify.result) lint =
  Finding.sort (lint @ vr.Fd_verify.Verify.findings)

let analysis_digest findings (c : Fd_verify.Cost.t) =
  digest
    [ Json.to_string (Finding.report_json findings);
      Json.to_string (Fd_verify.Cost.to_json c) ]

let run_digest st ~mismatches ~outputs_match =
  digest
    [ Json.to_string (Stats.to_json st); string_of_int mismatches;
      string_of_bool outputs_match ]

let simulate tr (s : Workload.spec) cp (compiled : Codegen.compiled) =
  let nprocs = s.Workload.nprocs in
  let config = Driver.machine_config (opts_of s) in
  let p =
    call tr "machine.simulate" (fun () ->
        Scheduler.run_partial ~budget config compiled.Codegen.program)
  in
  let st = p.Scheduler.p_stats in
  match p.Scheduler.p_frames with
  | None ->
    { digest = "";
      failure =
        Some ("simulation stopped: " ^ Option.value ~default:"" p.Scheduler.p_exhausted);
      counters = [] }
  | Some frames ->
    let seq = call tr "machine.seq_ref" (fun () -> Seq_interp.run ~config cp) in
    let mismatches =
      call tr "machine.gather" (fun () ->
          Gather.compare_results ~nprocs seq frames)
    in
    let outputs_match = Stats.outputs st = seq.Seq_interp.outputs in
    let failure =
      if mismatches <> [] then
        Some (Printf.sprintf "%d array mismatches" (List.length mismatches))
      else if not outputs_match then Some "PRINT output differs"
      else None
    in
    let i x = float_of_int x in
    { digest = run_digest st ~mismatches:(List.length mismatches) ~outputs_match;
      failure;
      counters =
        [ ("virtual.comm_ops", i (Stats.comm_ops st));
          ( "virtual.bytes",
            i (st.Stats.message_bytes + st.Stats.bcast_bytes + st.Stats.remap_bytes) );
          ("virtual.speedup", seq.Seq_interp.seq_time /. Stats.elapsed st);
          ("machine.comm_ops", i (Stats.comm_ops st));
          ("machine.message_bytes", i st.Stats.message_bytes);
          ("machine.bcast_bytes", i st.Stats.bcast_bytes);
          ("machine.remaps", i st.Stats.remaps);
          ("machine.remap_bytes", i st.Stats.remap_bytes);
          ("machine.flops", i st.Stats.flops);
          ("machine.mem_ops", i st.Stats.mem_ops);
          ("machine.max_wait_us", st.Stats.max_wait *. 1e6) ] }

let analyze tr (s : Workload.spec) src cp (compiled : Codegen.compiled) =
  let nprocs = s.Workload.nprocs in
  let prog = compiled.Codegen.program in
  let lint =
    call tr "verify.lint" (fun () -> Fd_verify.Lint.run ?reaching:(reaching_hook cp) cp)
  in
  let vr =
    call tr "verify.check" (fun () ->
        let prog, _ = Fd_verify.Break.apply prog (Fd_verify.Break.scan src) in
        Fd_verify.Verify.check_node ~budget ~nprocs prog)
  in
  let findings = check_findings vr lint in
  let profile = call tr "cost.profile" (fun () -> Fd_verify.Cost.profile_of_seq cp) in
  let c =
    call tr "cost.analyze" (fun () ->
        Fd_verify.Cost.analyze ~profile ~config:(Driver.machine_config (opts_of s)) prog)
  in
  let errors = Finding.errors findings @ Finding.errors c.Fd_verify.Cost.findings in
  let failure =
    if not vr.Fd_verify.Verify.complete then Some "check stopped by its budget"
    else if errors <> [] then
      Some (Printf.sprintf "%d Error finding(s) on a valid program" (List.length errors))
    else None
  in
  let i x = float_of_int x in
  { digest = analysis_digest findings c;
    failure;
    counters =
      [ ("virtual.comm_ops", i (c.Fd_verify.Cost.messages + c.Fd_verify.Cost.bcasts));
        ( "virtual.bytes",
          i (c.Fd_verify.Cost.message_bytes + c.Fd_verify.Cost.bcast_bytes
             + c.Fd_verify.Cost.remap_bytes) );
        ("cost.exact", if c.Fd_verify.Cost.exact then 1.0 else 0.0);
        ("verify.visits", i vr.Fd_verify.Verify.visits);
        ("verify.events", i vr.Fd_verify.Verify.events);
        ("verify.findings", i (List.length findings)) ] }

(* Run one job.  Exceptions of any kind are failures, not crashes of the
   benchmark. *)
let run ?(tr : tracer) (s : Workload.spec) src : outcome =
  try
    Fd_support.Diag.clear Fd_support.Diag.global;
    let ctx =
      Pipeline.of_source ~sink:(Fd_support.Diag.sink ()) ~opts:(opts_of s) src
    in
    let sizes =
      List.filter_map
        (fun (p : Pass.t) ->
          if timed_pass p then begin
            let layer = "pass." ^ p.Pass.p_name in
            let e = call tr layer (fun () -> Pipeline.run_pass p ctx) in
            Some (layer ^ ".size", float_of_int e.Pass.e_size)
          end
          else (ignore (Pipeline.run_pass p ctx); None))
        Pipeline.passes
    in
    let cp = Pass.get_checked ctx and compiled = Pass.get_compiled ctx in
    let o =
      match s.Workload.kind with
      | Workload.Run -> simulate tr s cp compiled
      | Workload.Analyze -> analyze tr s src cp compiled
    in
    { o with counters = sizes @ o.counters }
  with e ->
    { digest = ""; failure = Some ("exception: " ^ Printexc.to_string e);
      counters = [] }

(* The same job through the shipped entry points: [Driver.run_source]
   for [fdc run]; for [fdc check] + [fdc cost], the calls their CLI
   bodies make, each after its own [Driver.check_source] and
   [Driver.compile].  Its digest must equal the decomposed job's, which
   shows the timed path is the shipped path. *)
let reference (s : Workload.spec) src : string =
  let sink = Fd_support.Diag.sink () in
  let opts = opts_of s in
  match s.Workload.kind with
  | Workload.Run ->
    let r = Driver.run_source ~sink ~opts src in
    run_digest r.Driver.stats ~mismatches:(List.length r.Driver.mismatches)
      ~outputs_match:r.Driver.outputs_match
  | Workload.Analyze ->
    let nprocs = s.Workload.nprocs in
    let cp = Driver.check_source src in
    let compiled = Driver.compile ~sink ~opts cp in
    let prog, _ =
      Fd_verify.Break.apply compiled.Codegen.program (Fd_verify.Break.scan src)
    in
    let lint = Fd_verify.Lint.run ?reaching:(reaching_hook cp) cp in
    let vr = Fd_verify.Verify.check_node ~nprocs prog in
    let cp = Driver.check_source src in
    let compiled = Driver.compile ~sink ~opts cp in
    let profile = Fd_verify.Cost.profile_of_seq cp in
    let c =
      Fd_verify.Cost.analyze ~profile ~config:(Driver.machine_config opts)
        compiled.Codegen.program
    in
    analysis_digest (check_findings vr lint) c
