(* The benchmark's own tests: seeded job lists, repeatable digests, the
   decomposed job against the shipped entry points, and metric names. *)

open Fdbench

let first_rounds ~seed name =
  let next = Workload.rounds ~seed (Workload.pool name) in
  List.init 3 (fun _ -> List.map Workload.key (next ()))

let test_job_lists () =
  List.iter
    (fun name ->
      let pool = List.sort compare (List.map Workload.key (Workload.pool name)) in
      let a = first_rounds ~seed:1 name in
      Alcotest.(check (list (list string))) (name ^ ": same seed, same list") a
        (first_rounds ~seed:1 name);
      Alcotest.(check bool) (name ^ ": another seed, another list") false
        (a = first_rounds ~seed:2 name);
      List.iter
        (fun round ->
          Alcotest.(check (list string)) (name ^ ": a round is the pool") pool
            (List.sort compare round))
        a)
    Workload.names

(* Cheap jobs of both kinds and all three strategies, small enough for
   the test suite. *)
let cheap_jobs =
  List.filter
    (fun (s : Workload.spec) -> s.Workload.nprocs = 4 && s.Workload.program = "fig4")
    (Workload.pool "sim_lowp" @ Workload.pool "analyze_highp")
  @ List.filter
      (fun (s : Workload.spec) -> s.Workload.nprocs = 64 && s.Workload.program = "jacobi2d")
      (Workload.pool "analyze_highp")

let test_digests () =
  Alcotest.(check bool) "both job kinds covered" true
    (List.exists (fun (s : Workload.spec) -> s.Workload.kind = Workload.Run) cheap_jobs
     && List.exists (fun (s : Workload.spec) -> s.Workload.kind = Workload.Analyze) cheap_jobs);
  List.iter
    (fun s ->
      let src = Workload.source s and k = Workload.key s in
      let a = Job.run s src in
      let b = Job.run ~tr:(ref []) s src in
      Alcotest.(check (option string)) (k ^ ": correct") None a.Job.failure;
      Alcotest.(check string) (k ^ ": digest repeats, traced or not") a.Job.digest b.Job.digest;
      Alcotest.(check string) (k ^ ": shipped entry point agrees") a.Job.digest
        (Job.reference s src))
    cheap_jobs

let test_spans () =
  let s = List.hd cheap_jobs in
  let spans = ref [] in
  ignore (Job.run ~tr:spans s (Workload.source s));
  List.iter
    (fun (sp : Job.span) ->
      Alcotest.(check bool) (sp.Job.layer ^ " is a layer") true (List.mem sp.Job.layer Job.layers))
    !spans;
  Alcotest.(check bool) "simulate traced" true
    (List.exists (fun (sp : Job.span) -> sp.Job.layer = "machine.simulate") !spans)

let test_summary () =
  let xs = List.init 40 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "median" 20.5 (Summary.median xs);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "ten samples beyond the tail" (30.0, 75.0)
    (Summary.tail xs);
  Alcotest.(check (option (float 1e-9))) "exponent of t = P^2" (Some 2.0)
    (Summary.log_log_slope [ (4.0, 16.0); (16.0, 256.0); (64.0, 4096.0) ]);
  Alcotest.(check (option (float 1e-9))) "one P fits nothing" None
    (Summary.log_log_slope [ (4.0, 1.0); (4.0, 2.0) ])

(* BENCHMARK.json, at the repository root, declares what the benchmark
   prints. *)
let declared_names () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let re = Str.regexp {|"name": *"\([^"]*\)"|} in
  let rec scan pos acc =
    match Str.search_forward re text pos with
    | _ -> scan (Str.match_end ()) (Str.matched_group 1 text :: acc)
    | exception Not_found -> List.rev acc
  in
  scan 0 []

let test_names () =
  let printed = Workload.names @ Report.end_to_end_names @ Report.per_layer_names in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Summary.valid_metric_name n))
    printed;
  Alcotest.(check int) "names are unique" (List.length printed)
    (List.length (List.sort_uniq compare printed));
  Alcotest.(check (list string)) "BENCHMARK.json declares exactly the printed names"
    (List.sort compare printed) (List.sort compare (declared_names ()))

let () =
  Alcotest.run "fdbench"
    [ ( "fdbench",
        [ Alcotest.test_case "seeded job lists" `Quick test_job_lists;
          Alcotest.test_case "repeatable digests" `Quick test_digests;
          Alcotest.test_case "layer spans" `Quick test_spans;
          Alcotest.test_case "summary statistics" `Quick test_summary;
          Alcotest.test_case "metric names" `Quick test_names ] ) ]
