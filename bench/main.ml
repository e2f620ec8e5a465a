(* The one bench driver: every table and figure of the reconstructed
   RapiLog evaluation (see DESIGN.md for the experiment index), the
   core-operation microbenchmarks, and the gates — experiments that make
   named checks and write BENCH_<id>.json to the working directory
   (bench/gate.ml).

   Usage:
     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- --quick      smaller sweeps / fewer trials
     dune exec bench/main.exe -- --list       list experiment ids
     dune exec bench/main.exe -- --only ID    run one experiment (repeatable)
     dune exec bench/main.exe -- --check ...  exit 1 if a gate's check fails *)

let experiments =
  Bench_throughput.experiments @ Bench_latency.experiments
  @ Bench_virt_overhead.experiments @ Bench_failures.experiments
  @ Bench_buffer_size.experiments @ Bench_disk_speed.experiments
  @ Bench_group_commit.experiments @ Bench_recovery.experiments
  @ Bench_residual_energy.experiments @ Bench_single_disk.experiments
  @ Bench_ycsb.experiments @ Bench_consolidation.experiments
  @ Bench_restart.experiments @ Bench_commit_delay.experiments
  @ Bench_metrics.experiments @ Bench_replication.experiments
  @ Bench_commit_path.experiments @ Bench_sharded.experiments
  @ [ Bench_scenarios.experiment; Bench_micro.experiment ]
  @ Gate_engine.experiments @ Gate_crash_surface.experiments
  @ Gate_replication.experiments @ Gate_sharded.experiments
  @ Gate_scenarios.experiments

let usage () =
  print_endline "usage: main.exe [--quick] [--check] [--list] [--only ID]...";
  exit 2

let () =
  let quick = ref false in
  let check = ref false in
  let only = ref [] in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--only" :: id :: rest ->
        only := id :: !only;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument: %s\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then begin
    List.iter
      (fun e ->
        Printf.printf "%-22s %s\n" e.Bench_support.id e.Bench_support.description)
      experiments;
    exit 0
  end;
  let selected =
    match !only with
    | [] -> experiments
    | ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun e -> e.Bench_support.id = id) experiments)
            then begin
              (* A prefix of a real id (say "fig12" for
                 "fig12-replication") is still an error — ids are exact —
                 but earn a suggestion instead of a bare rejection. *)
              (match
                 List.filter
                   (fun e ->
                     String.length id > 0
                     && String.length e.Bench_support.id >= String.length id
                     && String.sub e.Bench_support.id 0 (String.length id) = id)
                   experiments
               with
              | [] ->
                  Printf.eprintf "unknown experiment id: %s (try --list)\n" id
              | matches ->
                  Printf.eprintf
                    "unknown experiment id: %s (did you mean %s? ids are \
                     exact — try --list)\n"
                    id
                    (String.concat " or "
                       (List.map (fun e -> e.Bench_support.id) matches)));
              exit 2
            end)
          ids;
        List.filter (fun e -> List.mem e.Bench_support.id ids) experiments
  in
  Printf.printf "RapiLog reproduction benchmark harness (%s mode, %d experiments)\n"
    (if !quick then "quick" else "full")
    (List.length selected);
  let started = Unix.gettimeofday () in
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      e.Bench_support.run ~quick:!quick;
      Printf.printf "  [%s done in %.1fs]\n%!" e.Bench_support.id
        (Unix.gettimeofday () -. t0))
    selected;
  Printf.printf "\nall experiments done in %.1fs\n" (Unix.gettimeofday () -. started);
  if !check && !Gate.failed then exit 1
