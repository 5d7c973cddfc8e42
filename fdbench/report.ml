(* The benchmark's metrics, computed from the samples of one run.  Every
   metric carries its clock: [host] is the tool's own cost, [virtual] is
   the simulated (or statically predicted) result of the program. *)

type sample = {
  spec : Workload.spec;
  traced : bool;
  t0 : float;  (** job start, wall clock seconds *)
  ms : float;  (** job wall time, measured *)
  scale : float;  (** calibrated time per measured time: the run's (see Calib) *)
  spans : Job.span list;
  outcome : Job.outcome;
}

type metric = { name : string; unit_ : string; clock : string; value : float }

let m name unit_ clock value = { name; unit_; clock; value }
let sum = List.fold_left ( +. ) 0.0
let counter name (o : Job.outcome) = Option.value ~default:0.0 (List.assoc_opt name o.Job.counters)

(* Counters of each distinct job, from its first correct execution: the
   same for every seed, because the pool is. *)
let pool_outcomes samples =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = Workload.key s.spec in
      if s.outcome.Job.failure = None && not (Hashtbl.mem seen k) then
        Hashtbl.replace seen k (s.spec, s.outcome))
    samples;
  Hashtbl.fold (fun _ v acc -> v :: acc) seen []

let pool_total samples name =
  sum (List.map (fun (_, o) -> counter name o) (pool_outcomes samples))

(* Calibrated job time, the one every host metric uses. *)
let job_ms s = s.ms *. s.scale

let tail_of samples = Summary.tail (List.map job_ms samples)

(* Throughput counts job time only: with one client and no think time,
   the work between jobs (calibration, heap reset) is the benchmark's,
   not the tool's. *)
let end_to_end ~setup_s ~peak_rss_mb samples =
  let ms = List.map job_ms samples in
  [ m "job_ms_p50" "ms" "host" (Summary.median ms);
    m "job_ms_tail" "ms" "host" (fst (tail_of samples));
    m "jobs_per_s" "1/s" "host" (float_of_int (List.length samples) /. (sum ms /. 1e3));
    m "setup_s" "s" "host" setup_s;
    m "peak_rss_mb" "MB" "host" peak_rss_mb;
    m "sim_comm_ops" "count" "virtual" (pool_total samples "virtual.comm_ops");
    m "sim_bytes" "bytes" "virtual" (pool_total samples "virtual.bytes") ]

let span_ms (sp : Job.span) = (sp.Job.t1 -. sp.Job.t0) *. 1e3

(* Calibrated self time of [layer] in one job.  Layer spans are leaves,
   so a span's duration is its self time. *)
let layer_ms layer s =
  s.scale *. sum (List.map span_ms (List.filter (fun sp -> sp.Job.layer = layer) s.spans))

let group_by key xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    xs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Median over programs of the layer-time exponent fitted on each
   program's P ladder; 0 when the layer never ran. *)
let p_exp layer traced =
  let slopes =
    List.filter_map
      (fun (_, samples) ->
        let calls = List.filter (fun s -> List.exists (fun sp -> sp.Job.layer = layer) s.spans) samples in
        Summary.log_log_slope
          (List.map
             (fun (p, ss) -> (float_of_int p, Summary.median (List.map (layer_ms layer) ss)))
             (group_by (fun s -> s.spec.Workload.nprocs) calls)))
      (group_by (fun s -> Workload.program_key s.spec) traced)
  in
  Summary.median slopes

let pass_names = List.map (fun (p : Fd_core.Pass.t) -> p.Fd_core.Pass.p_name) Job.timed_passes

(* [traced] are the traced jobs; [overhead] compares them with the same
   jobs run untraced. *)
let per_layer ~calibration_ms ~failed_frac ~overhead traced =
  let all_ms = sum (List.map job_ms traced) in
  let total_ms layer = sum (List.map (layer_ms layer) traced) in
  let frac a b = if b > 0.0 then a /. b else 0.0 in
  let layer_metrics layer =
    let alloc =
      sum
        (List.concat_map
           (fun s ->
             List.filter_map
               (fun sp -> if sp.Job.layer = layer then Some sp.Job.alloc else None)
               s.spans)
           traced)
    in
    [ m (layer ^ ".ms") "ms" "host" (total_ms layer);
      m (layer ^ ".share") "frac" "host" (frac (total_ms layer) all_ms);
      m (layer ^ ".alloc_mb") "MB" "host" (alloc /. 1e6);
      m (layer ^ ".p_exp") "exponent" "host" (p_exp layer traced) ]
  in
  let total = pool_total traced in
  let pool = pool_outcomes traced in
  let of_kind k = List.filter (fun ((s : Workload.spec), _) -> s.Workload.kind = k) pool in
  let runs = List.filter (fun s -> s.spec.Workload.kind = Workload.Run) traced in
  let sim_us = total_ms "machine.simulate" *. 1e3 in
  let covered = sum (List.map (fun l -> total_ms l) Job.layers) in
  List.concat_map layer_metrics Job.layers
  @ List.map
      (fun p -> m ("pass." ^ p ^ ".size") "count" "host" (total ("pass." ^ p ^ ".size")))
      pass_names
  @ List.map
      (fun c -> m ("verify." ^ c) "count" "virtual" (total ("verify." ^ c)))
      [ "visits"; "events"; "findings" ]
  @ List.map
      (fun (c, u) -> m ("machine." ^ c) u "virtual" (total ("machine." ^ c)))
      [ ("comm_ops", "count"); ("message_bytes", "bytes"); ("bcast_bytes", "bytes");
        ("remaps", "count"); ("remap_bytes", "bytes"); ("flops", "count");
        ("mem_ops", "count") ]
  @ [ m "machine.max_wait_us" "us" "virtual"
        (List.fold_left (fun a (_, o) -> Float.max a (counter "machine.max_wait_us" o)) 0.0 pool);
      m "machine.simulate.us_per_comm_op" "us/op" "host"
        (frac sim_us (sum (List.map (fun s -> counter "machine.comm_ops" s.outcome) runs)));
      m "machine.simulate.us_per_proc" "us/proc" "host"
        (frac sim_us (sum (List.map (fun s -> float_of_int s.spec.Workload.nprocs) runs)));
      m "sim_speedup_geomean" "ratio" "virtual"
        (Summary.geomean (List.map (fun (_, o) -> counter "virtual.speedup" o) (of_kind Workload.Run)));
      m "cost_exact_frac" "frac" "virtual"
        (let a = of_kind Workload.Analyze in
         frac (sum (List.map (fun (_, o) -> counter "cost.exact" o) a)) (float_of_int (List.length a)));
      m "failed_frac" "frac" "host" failed_frac;
      m "trace.overhead_frac" "frac" "host" overhead;
      m "trace.coverage_frac" "frac" "host" (frac covered all_ms);
      m "host.calibration_ms" "ms" "host" calibration_ms ]

let end_to_end_names =
  List.map (fun x -> x.name) (end_to_end ~setup_s:0.0 ~peak_rss_mb:0.0 [])

let per_layer_names =
  List.map (fun x -> x.name)
    (per_layer ~calibration_ms:0.0 ~failed_frac:0.0 ~overhead:0.0 [])

(* The layer with the largest self time, and its share. *)
let dominant metrics =
  List.fold_left
    (fun (best, share) x ->
      match Filename.chop_suffix_opt ~suffix:".share" x.name with
      | Some layer when x.value > share -> (layer, x.value)
      | _ -> (best, share))
    ("none", 0.0) metrics

let result_line ~correct ~attempted ~failed metrics =
  let open Fd_support.Json in
  to_string
    (Obj
       [ ("correct", Bool correct); ("attempted", Int attempted); ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun x -> (x.name, Obj [ ("value", Float x.value); ("unit", Str x.unit_) ]))
                metrics) ) ])
