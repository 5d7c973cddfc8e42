(* fdbench: the repository's benchmark.

     fdbench --workload NAME --seed N --seconds S --trace 0|1

   One single-threaded process runs a closed loop with one client over
   the workload's seeded job list, in a number of whole rounds fixed by
   the workload and S (about S calibrated seconds at the commit that
   defined the benchmark; see Calib), with the default configuration
   (one domain, no machine trace).  Every job's output is checked.  The
   last line of stdout is the result: end-to-end metrics with
   [--trace 0]; with [--trace 1], per-layer metrics from spans recorded
   around each layer call, every job run untraced and traced in a row so
   the tracing overhead is measured on the same jobs.  Spans are written
   to fdbench/traces/ at the end. *)

open Fdbench

let now = Unix.gettimeofday
let setups = 3

(* Rounds are not started after this much wall time, so that a run on a
   very slow host or program still ends in time. *)
let max_wall_s = 120.0

(* Peak resident set size of this process, from Linux's VmHWM. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l -> (
          match Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb) with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> scan ())
      in
      scan ())

(* Job-list and source generation plus a warm-up run of every program
   at its smallest P: everything before the first timed job. *)
let setup ~seed pool =
  let t0 = now () in
  let next_round = Workload.rounds ~seed pool in
  let sources = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace sources (Workload.key s) (Workload.source s)) pool;
  List.iter
    (fun s -> ignore (Job.run s (Hashtbl.find sources (Workload.key s))))
    (Workload.smallest pool);
  (next_round, sources, now () -. t0)

let write_spans ~workload ~seed ~t_start samples =
  let open Fd_support.Json in
  let us t = Float ((t -. t_start) *. 1e6) in
  let event ?(args = []) name t0 t1 =
    Obj
      ([ ("name", Str name); ("ph", Str "X"); ("pid", Int 1); ("tid", Int 1);
         ("ts", us t0); ("dur", Float ((t1 -. t0) *. 1e6)) ]
      @ if args = [] then [] else [ ("args", Obj args) ])
  in
  let events =
    List.concat_map
      (fun (i, (s : Report.sample)) ->
        let sp = s.Report.spec in
        event (Workload.key sp) s.Report.t0
          (s.Report.t0 +. (s.Report.ms /. 1e3))
          ~args:
            [ ("job", Int i); ("workload", Str workload);
              ("program", Str (Workload.program_key sp)); ("nprocs", Int sp.Workload.nprocs);
              ("strategy", Str (Fd_core.Options.strategy_name sp.Workload.strategy)) ]
        :: List.rev_map (fun (x : Job.span) -> event x.Job.layer x.Job.t0 x.Job.t1) s.Report.spans)
      (List.mapi (fun i s -> (i, s)) samples)
  in
  let dir = Filename.concat "fdbench" "traces" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" workload seed) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string (Obj [ ("traceEvents", List events) ])));
  path

let print_metrics metrics =
  List.iter
    (fun (x : Report.metric) ->
      Printf.printf "  %-36s %16.6f %-8s [%s]\n" x.Report.name x.Report.value x.Report.unit_
        x.Report.clock)
    metrics

(* Median wall time per job of each distinct job, with its dominant
   layer when traced: the per-job rows of the layer table. *)
let print_jobs samples =
  List.iter
    (fun (k, (ss : Report.sample list)) ->
      let ms = Summary.median (List.map Report.job_ms ss) in
      let top =
        List.fold_left
          (fun (bl, bt) l ->
            let t = Summary.median (List.map (Report.layer_ms l) ss) in
            if t > bt then (l, t) else (bl, bt))
          ("-", 0.0) Job.layers
      in
      Printf.printf "  %-44s %10.2f ms  top %s %.2f ms\n" k ms (fst top) (snd top))
    (List.sort compare (Report.group_by (fun s -> Workload.key s.Report.spec) samples))

let main workload seed seconds trace =
  let pool = Workload.pool workload in
  (* calibration kernel times, seconds *)
  let calib = ref [] and last_calib = ref 0.0 in
  let calibrate () =
    calib := Calib.sample () :: !calib;
    last_calib := now ()
  in
  let runs = List.init setups (fun _ -> calibrate (); setup ~seed pool) in
  let kernel_median () = Summary.median !calib in
  (* set-up is calibrated by the kernel runs made between set-ups, the
     host's speed at that moment, not the run's *)
  let setup_kernel = kernel_median () in
  let next_round, sources, _ = List.hd runs in
  let src s = Hashtbl.find sources (Workload.key s) in
  let digests = Hashtbl.create 64 in
  let samples = ref [] in
  let t_start = now () in
  let run_job ~traced (spec : Workload.spec) =
    (* each job starts from a collected heap, as each fdc command starts
       in a fresh process; the kernel's garbage too is collected *)
    if now () -. !last_calib >= 0.5 then calibrate ();
    Gc.full_major ();
    let tr = if traced then Some (ref []) else None in
    let t0 = now () in
    let o = Job.run ?tr spec (src spec) in
    let ms = (now () -. t0) *. 1e3 in
    let k = Workload.key spec in
    let o =
      match (o.Job.failure, Hashtbl.find_opt digests k) with
      | None, Some d when d <> o.Job.digest ->
        { o with Job.failure = Some "output digest differs between repeats" }
      | None, None -> Hashtbl.replace digests k o.Job.digest; o
      | _ -> o
    in
    Option.iter (Printf.eprintf "FAILED %s: %s\n%!" k) o.Job.failure;
    samples :=
      { Report.spec; traced; t0; ms; scale = 1.0;
        spans = (match tr with Some r -> !r | None -> []); outcome = o }
      :: !samples
  in
  (* The number of rounds depends on [seconds] alone, never on the speed
     of what is measured: the tail then stays on one rank of the pool,
     and the run's length follows the program's speed.  A traced run
     runs every job twice in a row, untraced and traced, first one and
     then the other by turns, in half as many rounds. *)
  let planned = Workload.rounds_per_run workload ~seconds in
  let planned = if trace then (planned + 1) / 2 else planned in
  let round = ref 0 in
  while !round < planned && now () -. t_start < max_wall_s do
    List.iteri
      (fun i spec ->
        if not trace then run_job ~traced:false spec
        else if i mod 2 = 0 then (run_job ~traced:false spec; run_job ~traced:true spec)
        else (run_job ~traced:true spec; run_job ~traced:false spec))
      (next_round ());
    incr round
  done;
  if !round < planned then
    Printf.eprintf "fdbench: cut after %d of %d rounds at %.0f s of wall time\n%!" !round
      planned max_wall_s;
  let elapsed = now () -. t_start in
  let calibration_ms = kernel_median () *. 1e3 in
  let peak_rss_mb = peak_rss_mb () in
  let scale = Calib.reference_s *. 1e3 /. calibration_ms in
  let setup_s =
    Calib.reference_s /. setup_kernel *. Summary.median (List.map (fun (_, _, t) -> t) runs)
  in
  let samples = List.rev_map (fun s -> { s with Report.scale }) !samples in
  (* outside the timed loop: the decomposed job reproduces the shipped
     entry point, on the smallest P of every program *)
  let gate_failures =
    List.filter_map
      (fun s ->
        let k = Workload.key s in
        match Job.reference s (src s) with
        | d when Some d = Hashtbl.find_opt digests k -> None
        | _ -> Some (k ^ ": differs from the shipped entry point")
        | exception e -> Some (k ^ ": " ^ Printexc.to_string e))
      (Workload.smallest pool)
  in
  List.iter (Printf.eprintf "GATE %s\n%!") gate_failures;
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> s.Report.outcome.Job.failure <> None) samples) in
  let untraced = List.filter (fun s -> not s.Report.traced) samples in
  let traced = List.filter (fun s -> s.Report.traced) samples in
  let total ss = Report.sum (List.map Report.job_ms ss) in
  let overhead = if trace then (total traced /. total untraced) -. 1.0 else 0.0 in
  let e2e = Report.end_to_end ~setup_s ~peak_rss_mb untraced in
  let tail, pct = Report.tail_of untraced in
  Printf.printf "fdbench %s seed=%d: %d jobs in %d rounds over %.1f s (pool %d jobs)\n"
    workload seed attempted !round elapsed (List.length pool);
  Printf.printf
    "host times are calibrated: x%.4f (kernel %.3f ms, median of %d, against %.1f ms)\n"
    scale calibration_ms (List.length !calib) (Calib.reference_s *. 1e3);
  Printf.printf "end to end (untraced jobs):\n";
  print_metrics e2e;
  Printf.printf "  job_ms_tail is the p%.1f of %d samples (%.3f ms)\n" pct
    (List.length untraced) tail;
  let metrics =
    if not trace then e2e
    else begin
      let failed_frac = float_of_int failed /. float_of_int attempted in
      let pl = Report.per_layer ~calibration_ms ~failed_frac ~overhead traced in
      Printf.printf "per layer (traced jobs):\n";
      print_metrics pl;
      let layer, share = Report.dominant pl in
      Printf.printf "dominant layer: %s (%.1f%% of job time)\n" layer (100.0 *. share);
      Printf.printf "per job (traced):\n";
      print_jobs traced;
      Printf.printf "spans: %s\n" (write_spans ~workload ~seed ~t_start traced);
      pl
    end
  in
  print_endline
    (Report.result_line ~correct:(failed = 0 && gate_failures = []) ~attempted ~failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "fdbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, "N job-list seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 record layer spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Workload.names) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  main !workload !seed !seconds (!trace = 1)
