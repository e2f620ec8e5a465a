open Desim
module Ring_state = Rapilog.Trusted_logger.Ring_state

type kind = Os_crash | Power_cut | Power_cut_tight | Machine_loss

let kind_name = function
  | Os_crash -> "os-crash"
  | Power_cut -> "power-cut"
  | Power_cut_tight -> "power-cut-tight"
  | Machine_loss -> "machine-loss"

let all_kinds = [ Os_crash; Power_cut; Power_cut_tight; Machine_loss ]

(* The single-machine kinds every local mode is sweepable under.
   [Machine_loss] is opt-in: the whole primary vanishing is exactly the
   failure local RapiLog does NOT promise to survive (only the
   replicated scenarios do), so a default sweep would flag expected
   losses as breaks. *)
let default_kinds = [ Os_crash; Power_cut; Power_cut_tight ]

let kind_of_name name =
  List.find_opt (fun kind -> String.equal (kind_name kind) name) all_kinds

type config = {
  scenario : Scenario.config;
  window_start : Time.span;
  window_length : Time.span;
  stride : int;
  kinds : kind list;
  tight_window : Time.span;
  tight_buffer_bytes : int;
  media_digests : bool;
}

let default scenario =
  {
    scenario;
    window_start = Time.ms 5;
    window_length = Time.ms 40;
    stride = 1;
    kinds = default_kinds;
    tight_window = Time.ms 20;
    tight_buffer_bytes = 128 * 1024;
    media_digests = false;
  }

(* The tight-budget kind changes the machine under test: a smaller PSU
   hold-up window and a trusted buffer shrunk to fit it. Everything that
   runs before the cut is affected (a smaller buffer backpressures
   earlier), so each kind enumerates its own effective configuration —
   boundary indices are only meaningful against the world they were
   counted in. *)
let effective_scenario config = function
  | Os_crash | Power_cut | Machine_loss -> config.scenario
  | Power_cut_tight ->
      {
        config.scenario with
        Scenario.psu = Power.Psu.of_window config.tight_window;
        logger =
          {
            config.scenario.Scenario.logger with
            Rapilog.Trusted_logger.buffer_bytes = config.tight_buffer_bytes;
          };
      }

type enumeration = {
  e_kind : kind;
  e_window_start_ns : int;
  e_window_end_ns : int;
  e_boundaries : int;
  e_candidates : (int * int) array;
}

(* Run [built] until the crash window closes, counting every event
   boundary inside it. Returns the enumeration and whether the window
   closed before the simulation ran out of events. *)
let walk_window config kind built track =
  let sim = built.Scenario.sim in
  let window = ref None in
  Driver.spawn_loader built track ~after_load:(fun () ->
      let ws = Time.add (Sim.now sim) config.window_start in
      window := Some (ws, Time.add ws config.window_length);
      Driver.spawn_clients built track);
  let boundaries = ref 0 in
  let candidates = ref [] in
  let closed = ref false in
  while (not !closed) && Sim.step sim do
    match !window with
    | None -> ()
    | Some (ws, we) ->
        let now = Sim.now sim in
        if Time.(we <= now) then closed := true
        else if Time.(ws <= now) then begin
          (* The boundary after the [n]-th executed event: the clock
             stands at that event's time and the next event has not run.
             Boundaries between same-instant events count too — that is
             what makes the sweep finer than time-based sampling. *)
          if !boundaries mod config.stride = 0 then
            candidates :=
              (Sim.events_executed sim, Time.to_ns now) :: !candidates;
          incr boundaries
        end
  done;
  match !window with
  | None -> failwith "Crash_surface: load phase never completed"
  | Some (ws, we) ->
      ( {
          e_kind = kind;
          e_window_start_ns = Time.to_ns ws;
          e_window_end_ns = Time.to_ns we;
          e_boundaries = !boundaries;
          e_candidates = Array.of_list (List.rev !candidates);
        },
        !closed )

let enumerate config kind =
  if config.stride < 1 then invalid_arg "Crash_surface: stride must be >= 1";
  let built = Scenario.build (effective_scenario config kind) in
  (* The crash replays run with the invariants monitor attached, and the
     monitor schedules its own poll events — so the enumeration replay
     must carry it too, or event indices would name different instants
     in the two replays. The monitor is simply abandoned with the rest
     of the simulation when enumeration stops. *)
  let (_ : Rapilog.Invariants.t list) =
    List.map
      (Rapilog.Invariants.attach built.Scenario.sim)
      (Scenario.all_loggers built)
  in
  fst (walk_window config kind built (Driver.make_tracking ()))

type verdict = {
  v_kind : kind;
  v_event_index : int;
  v_at_ns : int;
  v_acked : int;
  v_lost : int;
  v_extra : int;
  v_state_exact : bool;
  v_diff_count : int;
  v_invariant_violations : int;
  v_buffered_at_cut : int;
  v_media_crc : int;
  v_stats : Dbms.Recovery.replay_stats;
  v_tenant_acked : int;
  v_tenant_lost : int;
  v_tenant_extra : int;
  v_tenant_breaks : int;
  v_contract_ok : bool;
}

(* A deterministic digest of the durable media a recovery pass would
   read, computed through the same {!Storage.Block} durable interface on
   both the full-replay and the journal-reconstruction paths — so a
   single integer comparison certifies the two produced bit-identical
   post-crash images. *)
let media_digest ~log ~data =
  let chunk = 256 in
  let buf = ref Bytes.empty in
  let fold_device acc device =
    let extent = Storage.Block.durable_extent device in
    let ss = (Storage.Block.info device).Storage.Block.sector_size in
    if Bytes.length !buf < chunk * ss then buf := Bytes.create (chunk * ss);
    let rec go acc lba =
      if lba >= extent then acc
      else begin
        let sectors = min chunk (extent - lba) in
        Storage.Block.durable_read_into device ~lba ~sectors !buf ~off:0;
        let crc =
          Int32.to_int (Dbms.Crc32.digest_bytes !buf ~pos:0 ~len:(sectors * ss))
          land 0xFFFFFFFF
        in
        go (((acc * 16777619) + crc) land max_int) (lba + sectors)
      end
    in
    let acc = ((acc * 16777619) + extent) land max_int in
    if extent = 0 then acc else go acc 0
  in
  fold_device (fold_device 17 log) data

(* Replay to the boundary after event [event_index], cross-checking
   replay determinism: the boundary enumerated in one replay must fall
   at the identical instant in this one. *)
let run_to_boundary sim ~event_index ~at_ns =
  if not (Sim.run_to_event sim event_index) then
    failwith
      (Printf.sprintf "Crash_surface: event boundary %d beyond simulation end"
         event_index);
  let now_ns = Time.to_ns (Sim.now sim) in
  if now_ns <> at_ns then
    failwith
      (Printf.sprintf
         "Crash_surface: replay diverged at event %d: enumerated %d ns, \
          replayed %d ns"
         event_index at_ns now_ns)

let run_point config kind ~event_index ~at_ns =
  let built = Scenario.build (effective_scenario config kind) in
  let sim = built.Scenario.sim in
  let track = Driver.make_tracking () in
  (* The runtime monitors ride along exactly as in the sampled failure
     experiments — one per trusted logger on the machine (several in the
     sharded mode); they must be stopped once the failure settles or
     their self-rescheduling would keep the event loop alive forever. *)
  let monitors =
    List.map (Rapilog.Invariants.attach sim) (Scenario.all_loggers built)
  in
  let stop_monitor () = List.iter Rapilog.Invariants.stop monitors in
  Driver.spawn_loader built track ~after_load:(fun () ->
      Driver.spawn_clients built track);
  run_to_boundary sim ~event_index ~at_ns;
  let buffered_at_cut =
    match Scenario.all_loggers built with
    | [] -> -1
    | loggers ->
        List.fold_left
          (fun acc logger -> acc + Rapilog.Trusted_logger.buffered_bytes logger)
          0 loggers
  in
  (match kind with
  | Os_crash -> (
      Hypervisor.Vmm.crash_guest built.Scenario.vmm;
      (* The loggers outlive the guest: wait for every drain. *)
      match Scenario.all_loggers built with
      | [] -> stop_monitor ()
      | loggers ->
          ignore
            (Process.spawn sim ~name:"quiesce" (fun () ->
                 List.iter Rapilog.Trusted_logger.quiesce loggers;
                 stop_monitor ())))
  | Machine_loss ->
      (* The primary vanishes this instant: guest, trusted buffer, PSU
         residual energy and all. The guest halts first (nothing executes
         on a dead machine), then the power domain loses every device
         with a zero window — in-flight writes tear right here, before
         any same-instant completion can fire. Survivors: durable media
         and — in the replicated scenarios — the replica machines. *)
      Hypervisor.Vmm.crash_guest built.Scenario.vmm;
      Power.Power_domain.lose built.Scenario.power;
      (* A dead machine is also a dead network endpoint: sever every
         quorum link so in-flight appends and acks die on the wire
         instead of delivering post-mortem. Without this the Quorum 1
         control cell could never lose — entries still in flight to the
         slow replicas would land after the "loss". *)
      Option.iter Net.Quorum.primary_lost built.Scenario.quorum;
      Sim.schedule_at sim (Time.add (Sim.now sim) (Time.ms 2)) stop_monitor
  | Power_cut | Power_cut_tight ->
      Power.Power_domain.cut built.Scenario.power;
      let dead =
        match Power.Power_domain.dead_at built.Scenario.power with
        | Some dead -> dead
        | None -> assert false
      in
      (match built.Scenario.logger with
      | Some _ ->
          (* With the trusted logger deployed, the power-fail interrupt
             halts the guest at the instant of the cut — the paper's
             discipline: from the NMI on, only the trusted drain runs.
             Nothing is acknowledged at or after the cut. *)
          Hypervisor.Vmm.crash_guest built.Scenario.vmm
      | None ->
          (* Unprotected baselines get no power-fail warning: the machine
             keeps executing until just before hold-up expiry. *)
          Sim.schedule_at sim
            (Time.add dead (Time.ns (-1000)))
            (fun () -> Hypervisor.Vmm.crash_guest built.Scenario.vmm));
      Sim.schedule_at sim (Time.add dead (Time.ms 2)) stop_monitor);
  Sim.run sim;
  let recovery =
    Dbms.Recovery.run
      ~log_device:(Scenario.recovery_log_device built)
      ~data_device:built.Scenario.data_physical
      ~wal_config:built.Scenario.wal_config
      ~pool_config:built.Scenario.config.Scenario.pool
  in
  let audit = Audit.check ~model:track.Driver.model ~acked:track.Driver.acked ~recovery in
  let invariant_violations =
    List.fold_left
      (fun acc monitor -> acc + List.length (Rapilog.Invariants.violations monitor))
      0 monitors
  in
  (* The sharded tier gets its own audit: every tenant's acknowledged
     sequence numbers re-read from the shard devices, exactly as the
     DBMS audit re-reads the log device. A single lost tenant entry is
     a contract break on par with a lost commit. *)
  let tenant_acked, tenant_lost, tenant_extra, tenant_breaks =
    match built.Scenario.shard with
    | Some tier ->
        let t = Shard.Recover.audit tier in
        ( t.Shard.Recover.a_acked,
          t.Shard.Recover.a_lost,
          t.Shard.Recover.a_extra,
          t.Shard.Recover.a_breaks )
    | None -> (0, 0, 0, 0)
  in
  let lost = List.length audit.Audit.durability.Rapilog.Durability.lost in
  {
    v_kind = kind;
    v_event_index = event_index;
    v_at_ns = at_ns;
    v_acked = List.length track.Driver.acked;
    v_lost = lost;
    v_extra = List.length audit.Audit.durability.Rapilog.Durability.extra;
    v_state_exact = audit.Audit.state_exact;
    v_diff_count = audit.Audit.diff_count;
    v_invariant_violations = invariant_violations;
    v_buffered_at_cut = buffered_at_cut;
    v_media_crc =
      (if config.media_digests then
         media_digest ~log:built.Scenario.log_physical
           ~data:built.Scenario.data_physical
       else -1);
    v_stats = Dbms.Recovery.stats recovery;
    v_tenant_acked = tenant_acked;
    v_tenant_lost = tenant_lost;
    v_tenant_extra = tenant_extra;
    v_tenant_breaks = tenant_breaks;
    v_contract_ok =
      Rapilog.Durability.holds audit.Audit.durability
      && audit.Audit.state_exact
      && invariant_violations = 0
      && tenant_breaks = 0;
  }

type kind_summary = {
  k_kind : kind;
  k_boundaries : int;
  k_explored : int;
  k_contract_breaks : int;
  k_lost : int;
}

type result = {
  r_mode : Scenario.mode;
  r_stride : int;
  r_kinds : kind_summary list;
  r_total_boundaries : int;
  r_explored : int;
  r_contract_breaks : int;
  r_lost_total : int;
  r_verdicts : verdict list;
}

let assemble config ~boundaries_by_kind verdicts =
  let summary_of (kind, boundaries) =
    let of_kind = List.filter (fun v -> v.v_kind = kind) verdicts in
    {
      k_kind = kind;
      k_boundaries = boundaries;
      k_explored = List.length of_kind;
      k_contract_breaks =
        List.length (List.filter (fun v -> not v.v_contract_ok) of_kind);
      k_lost = List.fold_left (fun acc v -> acc + v.v_lost) 0 of_kind;
    }
  in
  let kinds = List.map summary_of boundaries_by_kind in
  {
    r_mode = config.scenario.Scenario.mode;
    r_stride = config.stride;
    r_kinds = kinds;
    r_total_boundaries =
      List.fold_left (fun acc k -> acc + k.k_boundaries) 0 kinds;
    r_explored = List.fold_left (fun acc k -> acc + k.k_explored) 0 kinds;
    r_contract_breaks =
      List.fold_left (fun acc k -> acc + k.k_contract_breaks) 0 kinds;
    r_lost_total = List.fold_left (fun acc k -> acc + k.k_lost) 0 kinds;
    r_verdicts = verdicts;
  }

let sweep ?jobs config =
  (* Enumeration is one serial replay per kind; the crash points are the
     fan-out. Each point is an independent deterministic simulation, so
     {!Parallel.map} returns verdicts bit-identical to a serial run. *)
  let enums = List.map (fun kind -> enumerate config kind) config.kinds in
  let tasks =
    List.concat_map
      (fun e ->
        List.map
          (fun (index, at) -> (e.e_kind, index, at))
          (Array.to_list e.e_candidates))
      enums
  in
  let verdicts =
    Parallel.map ?jobs
      (fun (kind, event_index, at_ns) ->
        run_point config kind ~event_index ~at_ns)
      tasks
  in
  assemble config
    ~boundaries_by_kind:(List.map (fun e -> (e.e_kind, e.e_boundaries)) enums)
    verdicts

(* {2 Crash pairs and partition schedules}

   The quorum promise is stronger than machine loss: the acknowledged
   prefix must survive the primary {e plus} any (quorum - 1) replicas,
   and must not care whether a replica was partitioned off while commits
   were in flight. So the sweep gets a second axis: for every (strided)
   pair of boundary candidates (i, j) with t_i <= t_j, a schedule kills
   or partitions two things — the first action exactly at event boundary
   i (with the same replay-determinism clock cross-check as the single
   sweep), the second at the enumerated clock instant t_j.

   The second action is time-targeted, not event-targeted, on purpose:
   the first injection perturbs the world, so event index j no longer
   names the same instant — but the instant itself is still a
   well-defined point of the perturbed run. Pair points always run as
   full replays; the journal engine reconstructs a single machine's
   durable state and cannot synthesize the cluster's network. *)

type pair_schedule =
  | Primary_then_node  (* primary dies at t_i, replica r at t_j *)
  | Node_then_primary  (* replica r dies at t_i, primary at t_j *)
  | Partition_commit  (* r partitioned at t_i, primary dies at t_j *)
  | Partition_heal  (* r partitioned at t_i, healed midway, primary dies at t_j *)

let pair_schedule_name = function
  | Primary_then_node -> "primary-then-node"
  | Node_then_primary -> "node-then-primary"
  | Partition_commit -> "partition-commit"
  | Partition_heal -> "partition-heal"

let all_pair_schedules =
  [ Primary_then_node; Node_then_primary; Partition_commit; Partition_heal ]

let pair_schedule_of_name name =
  List.find_opt
    (fun s -> String.equal (pair_schedule_name s) name)
    all_pair_schedules

type pair_verdict = {
  pv_schedule : pair_schedule;
  pv_first_event : int;
  pv_first_ns : int;
  pv_second_ns : int;
  pv_node : int;
  pv_acked : int;
  pv_lost : int;
  pv_extra : int;
  pv_state_exact : bool;
  pv_invariant_violations : int;
  pv_elected : int;  (* leader of the recovery election; -1 if none *)
  pv_term : int;
  pv_election_quorate : bool;
  pv_contract_ok : bool;
}

let run_pair_point config ~schedule ~first_event ~first_ns ~second_ns ~node =
  let built = Scenario.build (effective_scenario config Machine_loss) in
  let quorum =
    match built.Scenario.quorum with
    | Some quorum -> quorum
    | None ->
        invalid_arg "Crash_surface: pair sweep requires the rapilog-quorum mode"
  in
  let sim = built.Scenario.sim in
  let track = Driver.make_tracking () in
  let monitor = Option.map (Rapilog.Invariants.attach sim) built.Scenario.logger in
  let stop_monitor () = Option.iter Rapilog.Invariants.stop monitor in
  Driver.spawn_loader built track ~after_load:(fun () ->
      Driver.spawn_clients built track);
  run_to_boundary sim ~event_index:first_event ~at_ns:first_ns;
  let kill_primary () =
    Hypervisor.Vmm.crash_guest built.Scenario.vmm;
    Power.Power_domain.lose built.Scenario.power;
    Net.Quorum.primary_lost quorum
  in
  let at ns fn = Sim.schedule_at sim (Time.of_ns ns) fn in
  (match schedule with
  | Primary_then_node ->
      kill_primary ();
      at second_ns (fun () -> Net.Quorum.node_lost quorum node)
  | Node_then_primary ->
      Net.Quorum.node_lost quorum node;
      at second_ns kill_primary
  | Partition_commit ->
      (* Partition during commit: the cluster keeps committing with the
         partitioned replica's appends held on the wire, then the
         primary dies with the partition still up. *)
      Net.Quorum.partition_node quorum node;
      at second_ns kill_primary
  | Partition_heal ->
      Net.Quorum.partition_node quorum node;
      at ((first_ns + second_ns) / 2) (fun () -> Net.Quorum.heal_node quorum node);
      at second_ns kill_primary);
  at (second_ns + Time.span_to_ns (Time.ms 2)) stop_monitor;
  Sim.run sim;
  let recovery =
    Dbms.Recovery.run
      ~log_device:(Scenario.recovery_log_device built)
      ~data_device:built.Scenario.data_physical
      ~wal_config:built.Scenario.wal_config
      ~pool_config:built.Scenario.config.Scenario.pool
  in
  let audit =
    Audit.check ~model:track.Driver.model ~acked:track.Driver.acked ~recovery
  in
  let invariant_violations =
    match monitor with
    | Some monitor -> List.length (Rapilog.Invariants.violations monitor)
    | None -> 0
  in
  let elected, term, quorate =
    match Net.Quorum.last_election quorum with
    | Some e ->
        (e.Net.Quorum.el_leader, e.Net.Quorum.el_term, e.Net.Quorum.el_quorum)
    | None -> (-1, 0, false)
  in
  {
    pv_schedule = schedule;
    pv_first_event = first_event;
    pv_first_ns = first_ns;
    pv_second_ns = second_ns;
    pv_node = node;
    pv_acked = List.length track.Driver.acked;
    pv_lost = List.length audit.Audit.durability.Rapilog.Durability.lost;
    pv_extra = List.length audit.Audit.durability.Rapilog.Durability.extra;
    pv_state_exact = audit.Audit.state_exact;
    pv_invariant_violations = invariant_violations;
    pv_elected = elected;
    pv_term = term;
    pv_election_quorate = quorate;
    pv_contract_ok =
      Rapilog.Durability.holds audit.Audit.durability
      && audit.Audit.state_exact
      && invariant_violations = 0;
  }

type pair_summary = {
  ps_schedule : pair_schedule;
  ps_points : int;
  ps_breaks : int;
  ps_lost : int;
}

type pair_result = {
  pr_mode : Scenario.mode;
  pr_candidates : int;  (* boundary candidates on each axis *)
  pr_pairs : int;  (* ordered pairs available before pruning *)
  pr_points : int;
  pr_breaks : int;
  pr_lost_total : int;
  pr_schedules : pair_summary list;
  pr_verdicts : pair_verdict list;
}

let sweep_pairs ?jobs config ~schedules ~target =
  if config.scenario.Scenario.mode <> Scenario.Rapilog_quorum then
    invalid_arg "Crash_surface.sweep_pairs: requires the rapilog-quorum mode";
  if target < 1 then invalid_arg "Crash_surface.sweep_pairs: target must be >= 1";
  let replicas = config.scenario.Scenario.quorum.Net.Quorum.replicas in
  let enum = enumerate config Machine_loss in
  let cands = enum.e_candidates in
  let n = Array.length cands in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      pairs := (i, j) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  let total = Array.length pairs in
  (* Prune to ~[target] pairs per schedule, strided over the flattened
     (i, j) grid so both axes stay covered. Every schedule sweeps the
     same pair set; the killed/partitioned replica rotates as
     (i + j) mod replicas so each node id gets hit across the grid. *)
  let stride = max 1 (total / target) in
  let selected = ref [] in
  let k = ref 0 in
  while !k < total do
    selected := pairs.(!k) :: !selected;
    k := !k + stride
  done;
  let selected = List.rev !selected in
  let tasks =
    List.concat_map
      (fun schedule ->
        List.map
          (fun (i, j) ->
            let first_event, first_ns = cands.(i) in
            let _, second_ns = cands.(j) in
            (schedule, first_event, first_ns, second_ns, (i + j) mod replicas))
          selected)
      schedules
  in
  let verdicts =
    Parallel.map ?jobs
      (fun (schedule, first_event, first_ns, second_ns, node) ->
        run_pair_point config ~schedule ~first_event ~first_ns ~second_ns ~node)
      tasks
  in
  let summary_of schedule =
    let of_schedule =
      List.filter (fun v -> v.pv_schedule = schedule) verdicts
    in
    {
      ps_schedule = schedule;
      ps_points = List.length of_schedule;
      ps_breaks =
        List.length (List.filter (fun v -> not v.pv_contract_ok) of_schedule);
      ps_lost = List.fold_left (fun acc v -> acc + v.pv_lost) 0 of_schedule;
    }
  in
  let summaries = List.map summary_of schedules in
  {
    pr_mode = config.scenario.Scenario.mode;
    pr_candidates = n;
    pr_pairs = total;
    pr_points = List.length verdicts;
    pr_breaks =
      List.fold_left (fun acc s -> acc + s.ps_breaks) 0 summaries;
    pr_lost_total = List.fold_left (fun acc s -> acc + s.ps_lost) 0 summaries;
    pr_schedules = summaries;
    pr_verdicts = verdicts;
  }

(* {2 Journal-based incremental reconstruction}

   The full-replay sweep above re-executes the whole scenario once per
   crash point: O(points × run length). The journal sweep executes the
   scenario {e once} per kind with a {!Desim.Journal} recording every
   durable-media mutation, buffer push/pop, write submission and commit
   acknowledgement — then walks the crash points in increasing event
   order, folding journal deltas into a single evolving media image, and
   synthesizes each point's post-crash state from the deltas that were
   still in flight at its boundary. Only recovery and the audit run per
   point.

   Soundness rests on two facts the code asserts wherever it can:

   - {b determinism}: the recording run executes the identical event
     sequence as any {!run_point} replay (recording appends to flat
     arrays and schedules nothing), so a journal record stamped with
     event index [i] describes exactly what the replay would have done
     at that index;
   - {b completeness}: every mutation that can reach durable media
     before a crash point settles is journaled — device-level transfer
     starts and completions, trusted-buffer admissions and drains,
     volume-level write submissions (the instant a request survives a
     guest crash), and client acknowledgements. Enumeration keeps
     stepping past the window until every submission inside it has its
     downstream records, so synthesis never reads off the journal's
     end. *)

let journal_supported (scenario : Scenario.config) =
  scenario.Scenario.mode = Scenario.Rapilog
  && (not scenario.Scenario.single_disk)
  && match scenario.Scenario.device with
     | Scenario.Disk _ | Scenario.Nvme _ -> true
     | Scenario.Flash _ -> false

(* The log-device timing the power-cut synthesis gives each drain write:
   the same pure [write_timeline] arithmetic the live device executes,
   abstracted over the two journal-capable models. The disk's timeline
   depends on the head position; the NVMe's only on the clock — the
   [head] threaded through the post-cut drain is the head track for a
   disk and always 0 for NVMe. *)
type log_timing =
  | Hdd_timing of Storage.Hdd.config
  | Nvme_timing of Storage.Nvme.config

let timing_of_device = function
  | Scenario.Disk hdd -> Hdd_timing hdd
  | Scenario.Nvme nvme -> Nvme_timing nvme
  | Scenario.Flash _ ->
      invalid_arg "Crash_surface: journal sweep does not model the SATA SSD"

let timing_sector_size = function
  | Hdd_timing hdd -> hdd.Storage.Hdd.sector_size
  | Nvme_timing nvme -> nvme.Storage.Nvme.sector_size

let timing_head_of_lba timing lba =
  match timing with
  | Hdd_timing hdd -> Storage.Hdd.track_of_lba hdd lba
  | Nvme_timing _ -> 0

(* (start_ns, complete_ns, head-after) of a drain write submitted at
   [now_ns] with the device idle — the serial drainer never has a
   second write in flight, so the NVMe queue depth does not enter. *)
let timing_write_timeline timing ~now_ns ~head ~lba ~sectors =
  match timing with
  | Hdd_timing hdd ->
      let tl =
        Storage.Hdd.write_timeline hdd ~now_ns ~head_track:head ~lba ~sectors
      in
      (tl.Storage.Hdd.wt_start_ns, tl.Storage.Hdd.wt_complete_ns, tl.Storage.Hdd.wt_track)
  | Nvme_timing nvme ->
      let tl = Storage.Nvme.write_timeline nvme ~now_ns ~sectors in
      (tl.Storage.Nvme.wt_start_ns, tl.Storage.Nvme.wt_complete_ns, 0)

(* Everything the reconstruction needs about one kind's reference run:
   the journal, the boundary enumeration, the effective machine
   parameters, the endpoint ids, and the FIFO pairings between related
   record streams. All of it is immutable after this returns — chunk
   workers on other domains read it freely. *)
type prep = {
  p_kind : kind;
  p_enum : enumeration;
  p_journal : Journal.t;
  p_timing : log_timing;
  p_sector_size : int;
  p_logger : Rapilog.Trusted_logger.config;  (* the replica ring's policy *)
  p_window_ns : int;  (* PSU hold-up of the effective configuration *)
  p_wal_config : Dbms.Wal.config;
  p_pool_config : Dbms.Buffer_pool.config;
  p_chunk_sectors : int;  (* 0 when the data volume is a single device *)
  p_log_dev : int;
  p_members : int array;  (* data-member device endpoints *)
  p_log_port : int;
  p_data_port : int;
  p_violations_ns : int array;  (* monitor violation instants, ascending *)
  (* FIFO pairings, by occurrence order. The drainer is the log device's
     only client, so the k-th Pop, the k-th log Write_start and the k-th
     log Write_complete describe one physical write; each WAL stream's
     force mutex keeps at most one submission outstanding, so submits
     and pushes pair FIFO within a stream's device region (and globally
     when [streams = 1]); each data-port Submit fans out into per-member
     segments served FIFO, so per member the k-th Write_start/-complete
     pair with the k-th expected segment. *)
  p_log_pops : int array;  (* journal positions *)
  p_log_starts : int array;
  p_log_completes : int array;
  p_log_submits : int array;
  p_pushes : int array;
  p_submit_push : int array;
      (* journal position of the Push admitting the k-th log-port
         Submit; -1 for submits past the settle horizon. With parallel
         streams the global submit→push order is NOT FIFO (admission's
         copy time scales with the write size), only each stream's is —
         this explicit pairing is what the os-crash synthesis walks. *)
  p_member_starts : int array array;
  p_member_completes : int array array;
  p_member_submit_pos : int array array;
      (* position of the Submit that produced the k-th write of member m *)
  p_shared : Dbms.Recovery.Incremental.shared option;
      (* future-stream record/index tables, built once per kind.
         [None] with parallel log streams: the incremental engine's
         single-prefix watermark does not model S independent durable
         prefixes, so those sweeps run full recovery per point. *)
}

let member_slot members endpoint =
  let rec go i =
    if i >= Array.length members then -1
    else if members.(i) = endpoint then i
    else go (i + 1)
  in
  go 0

(* The stripe geometry of the data volume; [chunk_sectors = 0] is an
   unstriped single device. *)
let segments_of ~members ~chunk_sectors ~lba ~sectors =
  if chunk_sectors = 0 then
    [ { Storage.Stripe.member = 0; member_lba = lba; global_off = lba; sectors } ]
  else Storage.Stripe.plan ~members ~chunk_sectors ~lba ~sectors

let prep_segments prep =
  segments_of ~members:(Array.length prep.p_members)
    ~chunk_sectors:prep.p_chunk_sectors

(* A member write's sector ranges in the data volume's address space. *)
let iter_global_ranges prep ~member ~lba ~sectors f =
  if prep.p_chunk_sectors = 0 then (if sectors > 0 then f lba sectors)
  else
    Storage.Stripe.iter_global_ranges
      ~members:(Array.length prep.p_members)
      ~chunk_sectors:prep.p_chunk_sectors ~member ~lba ~sectors f

(* Build the pairing arrays with one pass over the journal, asserting
   the FIFO disciplines they encode. *)
let pair_journal prep_partial journal =
  let p = prep_partial in
  let log_pops = ref [] and log_starts = ref [] and log_completes = ref [] in
  let log_submits = ref [] and pushes = ref [] in
  let n_members = Array.length p.p_members in
  let member_starts = Array.make n_members [] in
  let member_completes = Array.make n_members [] in
  let member_submit_pos = Array.make n_members [] in
  (* Per-member queue of segments expected from data-port submissions:
     (member_lba, sectors, submit position). *)
  let expected : (int * int * int) Queue.t array =
    Array.init n_members (fun _ -> Queue.create ())
  in
  (* Stream region of a log-device lba: with one stream every submission
     (master block included) shares one FIFO; with several, each
     stream's region has its own. *)
  let streams = p.p_wal_config.Dbms.Wal.streams in
  let region_of_lba lba =
    if streams <= 1 then 0
    else begin
      let s =
        (lba - p.p_wal_config.Dbms.Wal.log_start_lba)
        / p.p_wal_config.Dbms.Wal.stream_stride_sectors
      in
      assert (s >= 0 && s < streams);
      s
    end
  in
  let pending_log_submits = Array.init (max 1 streams) (fun _ -> Queue.create ()) in
  let n_log_submits = ref 0 in
  let submit_push_pairs = ref [] in
  for pos = 0 to Journal.length journal - 1 do
    let a = Journal.a journal pos in
    match Journal.kind journal pos with
    | Journal.Pop ->
        assert (a = p.p_log_dev);
        log_pops := pos :: !log_pops
    | Journal.Push ->
        assert (a = p.p_log_dev);
        let push_lba = Journal.b journal pos in
        let lba, _sectors, k =
          Queue.pop pending_log_submits.(region_of_lba push_lba)
        in
        assert (lba = push_lba);
        submit_push_pairs := (k, pos) :: !submit_push_pairs;
        pushes := pos :: !pushes
    | Journal.Submit ->
        if a = p.p_log_port then begin
          Queue.push
            (Journal.b journal pos, Journal.c journal pos, !n_log_submits)
            pending_log_submits.(region_of_lba (Journal.b journal pos));
          incr n_log_submits;
          log_submits := pos :: !log_submits
        end
        else if a = p.p_data_port then
          List.iter
            (fun seg ->
              Queue.push
                (seg.Storage.Stripe.member_lba, seg.Storage.Stripe.sectors, pos)
                expected.(seg.Storage.Stripe.member))
            (prep_segments p ~lba:(Journal.b journal pos)
               ~sectors:(Journal.c journal pos))
        else assert false
    | Journal.Write_start ->
        if a = p.p_log_dev then log_starts := pos :: !log_starts
        else begin
          let m = member_slot p.p_members a in
          assert (m >= 0);
          let member_lba, sectors, submit = Queue.pop expected.(m) in
          assert (member_lba = Journal.b journal pos);
          assert (sectors = Journal.c journal pos);
          member_starts.(m) <- pos :: member_starts.(m);
          member_submit_pos.(m) <- submit :: member_submit_pos.(m)
        end
    | Journal.Write_complete ->
        if a = p.p_log_dev then log_completes := pos :: !log_completes
        else begin
          let m = member_slot p.p_members a in
          assert (m >= 0);
          member_completes.(m) <- pos :: member_completes.(m)
        end
    | Journal.Ack -> ()
  done;
  let arr l = Array.of_list (List.rev l) in
  let submit_push = Array.make !n_log_submits (-1) in
  List.iter (fun (k, pos) -> submit_push.(k) <- pos) !submit_push_pairs;
  let p =
    {
      p with
      p_log_pops = arr !log_pops;
      p_log_starts = arr !log_starts;
      p_log_completes = arr !log_completes;
      p_log_submits = arr !log_submits;
      p_pushes = arr !pushes;
      p_submit_push = submit_push;
      p_member_starts = Array.map arr member_starts;
      p_member_completes = Array.map arr member_completes;
      p_member_submit_pos = Array.map arr member_submit_pos;
    }
  in
  (* Cross-check the log-device FIFO: pop k, start k and complete k name
     the same write. *)
  Array.iteri
    (fun k pop ->
      let check arr =
        if k < Array.length arr then
          assert (Journal.b journal arr.(k) = Journal.b journal pop)
      in
      check p.p_log_starts;
      check p.p_log_completes)
    p.p_log_pops;
  (* And the member FIFO the synthesis indexes by: the k-th complete
     must describe the k-th start's write. Trivial on the disk's serial
     actuator; on NVMe it holds because every data write is one
     page-sized program (equal service), and this assert is what pins
     that if the pool ever mixes sizes. *)
  Array.iteri
    (fun m starts ->
      let completes = p.p_member_completes.(m) in
      Array.iteri
        (fun k sp ->
          if k < Array.length completes then
            assert (Journal.b journal completes.(k) = Journal.b journal sp))
        starts)
    p.p_member_starts;
  p

let grace_bound = Time.ms 500
let settle_check_steps = 2048

(* One reference run of [kind]'s effective configuration with journal
   recording on. Returns the boundary enumeration (identical to
   {!enumerate}'s — recording perturbs nothing) plus the paired journal.
   After the window closes, the run keeps stepping until every
   submission and drain issued inside it has its downstream records in
   the journal, so per-point synthesis never needs records the run
   didn't produce. *)
let enumerate_journal config kind =
  if config.stride < 1 then invalid_arg "Crash_surface: stride must be >= 1";
  if not (journal_supported config.scenario) then
    invalid_arg
      "Crash_surface: journal sweep requires Rapilog mode, a dedicated log \
       device, and a disk or NVMe model";
  let effective = effective_scenario config kind in
  let journal = Journal.create () in
  Journal.start_recording journal;
  Fun.protect ~finally:Journal.stop_recording @@ fun () ->
  let built = Scenario.build effective in
  let sim = built.Scenario.sim in
  let track = Driver.make_tracking () in
  let monitor = Option.map (Rapilog.Invariants.attach sim) built.Scenario.logger in
  let enum, closed = walk_window config kind built track in
  if not closed then
    failwith "Crash_surface.enumerate_journal: window never closed";
  let cut_len = Journal.length journal in
  let log_dev = Storage.Block.journal_id built.Scenario.log_physical in
  let log_port = Storage.Block.journal_id built.Scenario.log_attached in
  let data_port = Storage.Block.journal_id built.Scenario.data_attached in
  let members = Array.map Storage.Block.journal_id built.Scenario.data_members in
  assert (log_dev >= 0 && log_port >= 0 && data_port >= 0);
  Array.iter (fun m -> assert (m >= 0)) members;
  let chunk_sectors = built.Scenario.data_chunk_sectors in
  (* Demand side, frozen at window close: what the records inside the
     window still owe the journal. *)
  let n_members = Array.length members in
  let pops_due = ref 0 and log_submits_due = ref 0 in
  let member_due = Array.make n_members 0 in
  for pos = 0 to cut_len - 1 do
    match Journal.kind journal pos with
    | Journal.Pop -> incr pops_due
    | Journal.Submit ->
        let a = Journal.a journal pos in
        if a = log_port then incr log_submits_due
        else if a = data_port then
          List.iter
            (fun seg ->
              member_due.(seg.Storage.Stripe.member) <-
                member_due.(seg.Storage.Stripe.member) + 1)
            (segments_of ~members:n_members ~chunk_sectors
               ~lba:(Journal.b journal pos) ~sectors:(Journal.c journal pos))
    | _ -> ()
  done;
  (* Supply side, maintained incrementally over the grace period. *)
  let log_completes = ref 0 and pushes = ref 0 in
  let member_completes = Array.make n_members 0 in
  let scanned = ref 0 in
  let settled () =
    for pos = !scanned to Journal.length journal - 1 do
      let a = Journal.a journal pos in
      match Journal.kind journal pos with
      | Journal.Write_complete ->
          if a = log_dev then incr log_completes
          else begin
            let m = member_slot members a in
            if m >= 0 then member_completes.(m) <- member_completes.(m) + 1
          end
      | Journal.Push -> incr pushes
      | _ -> ()
    done;
    scanned := Journal.length journal;
    !log_completes >= !pops_due
    && !pushes >= !log_submits_due
    && Array.for_all2 ( <= ) member_due member_completes
  in
  let deadline = Time.add (Time.of_ns enum.e_window_end_ns) grace_bound in
  while not (settled ()) do
    if Time.(deadline < Sim.now sim) then
      failwith "Crash_surface.enumerate_journal: run did not settle in grace";
    let steps = ref 0 in
    while !steps < settle_check_steps && Sim.step sim do
      incr steps
    done;
    if !steps = 0 && not (settled ()) then
      failwith "Crash_surface.enumerate_journal: simulation ended unsettled"
  done;
  let violations_ns =
    match monitor with
    | None -> [||]
    | Some monitor ->
        Array.of_list
          (List.map
             (fun v -> Time.to_ns v.Rapilog.Invariants.at)
             (Rapilog.Invariants.violations monitor))
  in
  let timing = timing_of_device effective.Scenario.device in
  let sector_size = timing_sector_size timing in
  (* The future stream: every log push's payload at its stream offset,
     later pushes overwriting earlier ones (a force appending into a
     partially-filled tail sector re-pushes that sector fuller). Every
     point's durable log is a verified prefix of this image — the
     incremental engine's whole scan/analysis phase reduces to binary
     searches over its one-time decode. Single-stream only: with
     parallel streams there is no one prefix, so the per-point fallback
     is a full recovery pass over the synthesized media. *)
  let shared =
    if built.Scenario.wal_config.Dbms.Wal.streams > 1 then None
    else begin
      let future =
        let start = built.Scenario.wal_config.Dbms.Wal.log_start_lba in
        let fb = ref (Bytes.make 65536 '\000') and flen = ref 0 in
        for pos = 0 to Journal.length journal - 1 do
          match Journal.kind journal pos with
          | Journal.Push when Journal.a journal pos = log_dev ->
              let lba = Journal.b journal pos in
              assert (lba >= start);
              let data = Journal.payload journal pos in
              let off = (lba - start) * sector_size in
              let len = String.length data in
              if off + len > Bytes.length !fb then begin
                let cap = ref (Bytes.length !fb) in
                while !cap < off + len do
                  cap := !cap * 2
                done;
                let fresh = Bytes.make !cap '\000' in
                Bytes.blit !fb 0 fresh 0 !flen;
                fb := fresh
              end;
              Bytes.blit_string data 0 !fb off len;
              if off + len > !flen then flen := off + len
          | _ -> ()
        done;
        Bytes.sub_string !fb 0 !flen
      in
      Some
        (Dbms.Recovery.Incremental.prepare ~wal_config:built.Scenario.wal_config
           ~pool_config:built.Scenario.config.Scenario.pool
           ~log_sector_size:sector_size ~future)
    end
  in
  let prep_partial =
    {
      p_kind = kind;
      p_enum = enum;
      p_journal = journal;
      p_timing = timing;
      p_sector_size = sector_size;
      p_logger = effective.Scenario.logger;
      p_window_ns =
        (* Machine loss has no residual-energy window: the devices are
           dead at the boundary instant itself. *)
        (match kind with
        | Machine_loss -> 0
        | Os_crash | Power_cut | Power_cut_tight ->
            Time.span_to_ns (Power.Psu.window effective.Scenario.psu));
      p_wal_config = built.Scenario.wal_config;
      p_pool_config = built.Scenario.config.Scenario.pool;
      p_chunk_sectors = chunk_sectors;
      p_log_dev = log_dev;
      p_members = members;
      p_log_port = log_port;
      p_data_port = data_port;
      p_violations_ns = violations_ns;
      p_log_pops = [||];
      p_log_starts = [||];
      p_log_completes = [||];
      p_log_submits = [||];
      p_pushes = [||];
      p_submit_push = [||];
      p_member_starts = [||];
      p_member_completes = [||];
      p_member_submit_pos = [||];
      p_shared = shared;
    }
  in
  pair_journal prep_partial journal

(* The evolving image of one kind's reference run at a boundary: the
   durable media as of the boundary, the logger's ring state, the
   client-side model, and the in-flight bookkeeping synthesis needs.
   Strictly monotone — a cursor only ever advances. *)
type cursor = {
  mutable pos : int;  (* next journal position to fold in *)
  log_base : Storage.Block.Media.t;
  member_base : Storage.Block.Media.t array;
  inc : Dbms.Recovery.Incremental.t option;
      (* incremental recovery cache over the base image; fed every base
         durable write, consulted per point instead of a full pass.
         [None] for multi-stream sweeps (full recovery per point). *)
  replica : Ring_state.t;
  model : (int, string) Hashtbl.t;
  (* Acknowledged txids as a sorted array: acks arrive near-ascending,
     and the per-point audit wants a merge walk, not a set build. *)
  mutable acked : int array;
  mutable n_acked : int;
  mutable pops_seen : int;
  mutable log_completes_seen : int;
  mutable pushes_seen : int;
  mutable log_submits_seen : int;
  mutable last_log_lba : int;  (* of the last completed log write; -1 if none *)
  member_completes_seen : int array;
  member_expected : int array;  (* segments owed by data submissions so far *)
}

let cursor_create prep =
  let journal = prep.p_journal in
  let media_of endpoint =
    let ep = Journal.endpoint journal endpoint in
    Storage.Block.Media.create ~sector_size:ep.Journal.ep_sector_size
      ~capacity_sectors:ep.Journal.ep_capacity_sectors
  in
  let n_members = Array.length prep.p_members in
  let log_base = media_of prep.p_log_dev in
  let member_base = Array.map media_of prep.p_members in
  (* A frozen view of the evolving base data volume for the incremental
     cache's page probes: media are mutable, so reads reflect every
     cursor advance. *)
  let data_base () =
    let member_frozen =
      Array.map (Storage.Block.of_media ~model:"journal-base") member_base
    in
    if prep.p_chunk_sectors = 0 then member_frozen.(0)
    else
      Storage.Stripe.create
        (Sim.create ~seed:0L ())
        ~chunk_sectors:prep.p_chunk_sectors member_frozen
  in
  {
    pos = 0;
    log_base;
    member_base;
    inc =
      Option.map
        (fun shared ->
          Dbms.Recovery.Incremental.create shared ~data_base:(data_base ()))
        prep.p_shared;
    replica = Ring_state.create prep.p_logger ~sector_size:prep.p_sector_size;
    model = Hashtbl.create 4096;
    acked = Array.make 1024 0;
    n_acked = 0;
    pops_seen = 0;
    log_completes_seen = 0;
    pushes_seen = 0;
    log_submits_seen = 0;
    last_log_lba = -1;
    member_completes_seen = Array.make n_members 0;
    member_expected = Array.make n_members 0;
  }

let cursor_ack cur txid =
  if cur.n_acked = Array.length cur.acked then begin
    let fresh = Array.make (2 * cur.n_acked) 0 in
    Array.blit cur.acked 0 fresh 0 cur.n_acked;
    cur.acked <- fresh
  end;
  let i = ref cur.n_acked in
  while !i > 0 && cur.acked.(!i - 1) > txid do
    decr i
  done;
  Array.blit cur.acked !i cur.acked (!i + 1) (cur.n_acked - !i);
  cur.acked.(!i) <- txid;
  cur.n_acked <- cur.n_acked + 1

(* Fold in every journal record up to and including event [boundary].
   The replica re-executes the logger's ring operations — admission and
   the drain's batch choice, through {!Rapilog.Trusted_logger.Ring_state}
   — asserting each matches the journaled outcome: a live differential
   check of the reconstruction against the reference run. *)
let cursor_advance prep cur ~boundary =
  let j = prep.p_journal in
  let len = Journal.length j in
  while cur.pos < len && Journal.index j cur.pos <= boundary do
    let pos = cur.pos in
    let a = Journal.a j pos in
    (match Journal.kind j pos with
    | Journal.Write_start -> ()
    | Journal.Write_complete ->
        let lba = Journal.b j pos in
        if a = prep.p_log_dev then begin
          let data = Journal.payload j pos in
          Storage.Block.Media.write cur.log_base ~lba ~data;
          Option.iter
            (fun inc -> Dbms.Recovery.Incremental.note_log_write inc ~lba ~data)
            cur.inc;
          cur.log_completes_seen <- cur.log_completes_seen + 1;
          cur.last_log_lba <- lba
        end
        else begin
          let m = member_slot prep.p_members a in
          let data = Journal.payload j pos in
          Storage.Block.Media.write cur.member_base.(m) ~lba ~data;
          Option.iter
            (fun inc ->
              iter_global_ranges prep ~member:m ~lba
                ~sectors:(String.length data / prep.p_sector_size)
                (fun glba gsectors ->
                  Dbms.Recovery.Incremental.note_data_write inc ~lba:glba
                    ~sectors:gsectors))
            cur.inc;
          cur.member_completes_seen.(m) <- cur.member_completes_seen.(m) + 1
        end
    | Journal.Push ->
        let lba = Journal.b j pos in
        let data = Journal.payload j pos in
        let ok = Ring_state.admit cur.replica ~lba ~data in
        assert ok;
        Option.iter
          (fun inc -> Dbms.Recovery.Incremental.note_push inc ~lba ~data)
          cur.inc;
        cur.pushes_seen <- cur.pushes_seen + 1
    | Journal.Pop ->
        (match Ring_state.next_batch cur.replica with
        | Some { lba; data } ->
            assert (lba = Journal.b j pos);
            assert (String.length data = Journal.c j pos)
        | None -> assert false);
        cur.pops_seen <- cur.pops_seen + 1
    | Journal.Submit ->
        if a = prep.p_log_port then
          cur.log_submits_seen <- cur.log_submits_seen + 1
        else
          List.iter
            (fun seg ->
              cur.member_expected.(seg.Storage.Stripe.member) <-
                cur.member_expected.(seg.Storage.Stripe.member) + 1)
            (prep_segments prep ~lba:(Journal.b j pos)
               ~sectors:(Journal.c j pos))
    | Journal.Ack ->
        cursor_ack cur a;
        List.iter
          (fun (key, value) ->
            match value with
            | Some v -> Hashtbl.replace cur.model key v
            | None -> Hashtbl.remove cur.model key)
          (Driver.decode_ack_writes (Journal.payload j pos)));
    cur.pos <- pos + 1
  done

(* Torn-write randomness for one crash point. A live device draws its
   tears off a generator it never touches before the cut, one draw per
   in-flight write in submission order — so a point's draws come
   sequentially off one fresh per-endpoint copy of the registered state.
   The disk has at most one write in flight; NVMe's [queue_depth]
   concurrency is where the sequencing matters. *)
type tears = { mutable t_rngs : (int * Rng.t) list }

let tear_draw prep tears ~endpoint ~sectors =
  let rng =
    match List.assoc_opt endpoint tears.t_rngs with
    | Some rng -> rng
    | None -> (
        let ep = Journal.endpoint prep.p_journal endpoint in
        match ep.Journal.ep_rng with
        | Some rng ->
            let rng = Rng.copy rng in
            tears.t_rngs <- (endpoint, rng) :: tears.t_rngs;
            rng
        | None -> assert false)
  in
  Rng.int rng (sectors + 1)

(* A per-point overlay that keeps the ordered write list alongside the
   media image: the media feeds the frozen devices (master block, page
   loads, digests) and the list feeds the incremental recovery engine,
   guaranteed in sync because one call produces both. Entries are
   [(lba, data, persisted_sectors, push_derived)]; a torn write
   persists a prefix. [push_derived] marks writes whose bytes replay
   buffered pushes — the engine trusts them below its push watermark;
   recorded device batches (whose tail sector may be staler than a
   later re-push) must pass [trusted:false] to be compared directly. *)
type sink = {
  sk_media : Storage.Block.Media.t;
  sk_sector_size : int;
  mutable sk_writes : (int * string * int * bool) list;  (* newest-first *)
}

let sink_over base =
  {
    sk_media = Storage.Block.Media.overlay base;
    sk_sector_size = Storage.Block.Media.sector_size base;
    sk_writes = [];
  }

let sink_write_prefix s ~trusted ~lba ~data ~sectors =
  Storage.Block.Media.write_prefix s.sk_media ~lba ~data ~sectors;
  s.sk_writes <- (lba, data, sectors, trusted) :: s.sk_writes

let sink_write s ~trusted ~lba ~data =
  sink_write_prefix s ~trusted ~lba ~data
    ~sectors:(String.length data / s.sk_sector_size)

(* OS crash at [boundary]: the guest dies, the trusted side survives
   with power and admission stays open. The pending drain write
   completes, a copy of the logger's ring drains to empty through
   {!Ring_state.drain} (no window closes, so timing is irrelevant), the
   one possibly-in-the-gap admission completes in the surviving backend,
   and every data write already submitted to the backend reaches media
   in full. *)
let synth_os_crash prep cur ~boundary ~log_sink ~member_sinks =
  let j = prep.p_journal in
  if cur.pops_seen > cur.log_completes_seen then begin
    assert (cur.pops_seen = cur.log_completes_seen + 1);
    let cp = prep.p_log_completes.(cur.log_completes_seen) in
    (* A recorded device batch: its tail sector can be staler than a
       later re-push, so it is not watermark-trusted. *)
    sink_write log_sink ~trusted:false ~lba:(Journal.b j cp)
      ~data:(Journal.payload j cp)
  end;
  Ring_state.drain (Ring_state.copy cur.replica) ~write:(fun ~stamp:_ ~lba ~data ->
      sink_write log_sink ~trusted:true ~lba ~data;
      true);
  (* Post-boundary admissions, in push order: submissions already at the
     logger whose admission had not fired at the boundary. A single WAL
     stream holds at most one in the gap (the force mutex); with S
     parallel streams each stream's force can have one outstanding, so
     up to S replay here — all beyond the push watermark. Pending-ness
     is per submit (its paired push falls past the boundary), because
     with several streams a long copy can still be in flight while later
     short submissions of other streams have already been admitted. *)
  let pending = ref [] in
  for k = 0 to cur.log_submits_seen - 1 do
    let pp = prep.p_submit_push.(k) in
    assert (pp >= 0);
    if Journal.index j pp > boundary then pending := pp :: !pending
  done;
  List.iter
    (fun pp ->
      sink_write log_sink ~trusted:false ~lba:(Journal.b j pp)
        ~data:(Journal.payload j pp))
    (List.sort compare !pending);
  Array.iteri
    (fun m sink ->
      for k = cur.member_completes_seen.(m) to cur.member_expected.(m) - 1 do
        let cp = prep.p_member_completes.(m).(k) in
        sink_write sink ~trusted:false ~lba:(Journal.b j cp)
          ~data:(Journal.payload j cp)
      done)
    member_sinks

(* The fate of one write racing the hold-up expiry at [dead]. The event
   queue breaks time ties by insertion order, and the device-death event
   is inserted at the injection boundary — so a write whose transfer was
   already running at the boundary (its completion event predates the
   death event) still persists when completing exactly at [dead],
   whereas any transfer scheduled after the boundary loses that tie. *)
type fate = Persists | Torn | Dropped

let write_fate ~started_at_boundary ~s ~c ~dead =
  if started_at_boundary then if c <= dead then Persists else Torn
  else if c < dead then Persists
  else if s < dead then Torn
  else Dropped

(* Machine loss: death is not an event racing the queue — the injection
   kills the devices inline at the boundary, before any same-instant
   completion can fire. A transfer already on the platter tears; one not
   yet started never happens. *)
let write_fate_instant ~started_at_boundary =
  if started_at_boundary then Torn else Dropped

(* Power cut at [boundary]: the guest halts (the power-fail interrupt),
   so durable state evolves only through the trusted drain and the data
   writes already submitted — each racing the PSU window. What the
   logger does at the cut is its own code: a copy of the ring takes
   {!Ring_state.power_fail}, then {!Ring_state.drain}, whose device
   writes are timed by the model's pure [write_timeline] (the arithmetic
   the live device executes) and die with the window. *)
let synth_power_cut prep cur ~boundary ~b_time ~log_sink ~member_sinks =
  let j = prep.p_journal in
  let tears = { t_rngs = [] } in
  let dead = b_time + prep.p_window_ns in
  let instant = prep.p_kind = Machine_loss in
  let fate ~started_at_boundary ~s ~c =
    if instant then write_fate_instant ~started_at_boundary
    else write_fate ~started_at_boundary ~s ~c ~dead
  in
  let resume = ref None in
  (* The drain write already popped at the boundary, if any. *)
  if cur.pops_seen > cur.log_completes_seen then begin
    assert (cur.pops_seen = cur.log_completes_seen + 1);
    let k = cur.log_completes_seen in
    let sp = prep.p_log_starts.(k) and cp = prep.p_log_completes.(k) in
    let s = Journal.time_ns j sp and c = Journal.time_ns j cp in
    let lba = Journal.b j cp in
    let data = Journal.payload j cp in
    let sectors = Journal.c j cp in
    match fate ~started_at_boundary:(Journal.index j sp <= boundary) ~s ~c with
    | Persists ->
        (* A recorded device batch, like the os-crash pending write:
           compared directly, not watermark-trusted. *)
        sink_write log_sink ~trusted:false ~lba ~data;
        resume := Some (c, timing_head_of_lba prep.p_timing lba)
    | Torn ->
        let persisted = tear_draw prep tears ~endpoint:prep.p_log_dev ~sectors in
        sink_write_prefix log_sink ~trusted:false ~lba ~data ~sectors:persisted
    | Dropped -> ()
  end
  else begin
    (* Drainer idle or between pops: the next pop fires at the boundary
       instant with the head where the last completed write left it. *)
    let head =
      if cur.last_log_lba < 0 then 0
      else timing_head_of_lba prep.p_timing cur.last_log_lba
    in
    resume := Some (b_time, head)
  end;
  let ring = Ring_state.copy cur.replica in
  Ring_state.power_fail ring;
  (match !resume with
  | None -> ()  (* the pending write tore or dropped: the device is dead *)
  | Some (start_ns, head) ->
      (* Each batch is submitted at the previous one's completion: the
         drainer has one write in flight. *)
      let cursor_ns = ref start_ns and head_track = ref head in
      Ring_state.drain ring
        ~write:(fun ~stamp:_ ~lba ~data ->
          let sectors = String.length data / prep.p_sector_size in
          let start_ns, complete_ns, track =
            timing_write_timeline prep.p_timing ~now_ns:!cursor_ns
              ~head:!head_track ~lba ~sectors
          in
          if complete_ns < dead then begin
            sink_write log_sink ~trusted:true ~lba ~data;
            cursor_ns := complete_ns;
            head_track := track;
            true
          end
          else begin
            if start_ns < dead then begin
              let persisted =
                tear_draw prep tears ~endpoint:prep.p_log_dev ~sectors
              in
              sink_write_prefix log_sink ~trusted:true ~lba ~data
                ~sectors:persisted
            end;
            false
          end));
  (* Data writes already submitted race the window on their journaled
     schedule: a member serves FIFO, and nothing submitted after the
     boundary exists in the crash world to run ahead of them. A torn
     write does not end the member's story — an NVMe member holds up to
     [queue_depth] programs in flight, each tearing independently in
     submission order (the disk's serial actuator makes the write after
     a torn one necessarily [Dropped], so it loses nothing by the
     continue). Program starts are monotone in submission order, so the
     first [Dropped] write is terminal on every model. *)
  Array.iteri
    (fun m sink ->
      let running = ref true in
      let k = ref cur.member_completes_seen.(m) in
      while !running && !k < cur.member_expected.(m) do
        let sp = prep.p_member_starts.(m).(!k) in
        let cp = prep.p_member_completes.(m).(!k) in
        let s = Journal.time_ns j sp and c = Journal.time_ns j cp in
        let lba = Journal.b j cp in
        let data = Journal.payload j cp in
        (match
           fate ~started_at_boundary:(Journal.index j sp <= boundary) ~s ~c
         with
        | Persists -> sink_write sink ~trusted:false ~lba ~data
        | Torn ->
            let persisted =
              tear_draw prep tears ~endpoint:prep.p_members.(m)
                ~sectors:(Journal.c j cp)
            in
            sink_write_prefix sink ~trusted:false ~lba ~data ~sectors:persisted
        | Dropped -> running := false);
        incr k
      done)
    member_sinks

let violations_until prep b_time =
  let count = ref 0 in
  Array.iter
    (fun at -> if at <= b_time then incr count)
    prep.p_violations_ns;
  !count

let reconstruct_point config prep cur ~event_index ~at_ns =
  cursor_advance prep cur ~boundary:event_index;
  let log_sink = sink_over cur.log_base in
  let member_sinks = Array.map sink_over cur.member_base in
  (match prep.p_kind with
  | Os_crash -> synth_os_crash prep cur ~boundary:event_index ~log_sink ~member_sinks
  | Power_cut | Power_cut_tight | Machine_loss ->
      (* Machine loss is a power cut with a zero window ([p_window_ns]
         is 0 and fates are instant): the pending drain write tears, the
         post-cut drain writes nothing, queued data writes vanish. *)
      synth_power_cut prep cur ~boundary:event_index ~b_time:at_ns ~log_sink
        ~member_sinks);
  let frozen_log = Storage.Block.of_media ~model:"journal-log" log_sink.sk_media in
  let frozen_members =
    Array.map
      (fun sink -> Storage.Block.of_media ~model:"journal-member" sink.sk_media)
      member_sinks
  in
  let frozen_data =
    if prep.p_chunk_sectors = 0 then frozen_members.(0)
    else
      Storage.Stripe.create
        (Sim.create ~seed:0L ())
        ~chunk_sectors:prep.p_chunk_sectors frozen_members
  in
  let recovery =
    match cur.inc with
    | Some inc ->
        let data_overlay = ref [] in
        Array.iteri
          (fun m sink ->
            List.iter
              (fun (lba, _data, persisted, _trusted) ->
                iter_global_ranges prep ~member:m ~lba ~sectors:persisted
                  (fun glba gsectors ->
                    data_overlay := (glba, gsectors) :: !data_overlay))
              sink.sk_writes)
          member_sinks;
        Dbms.Recovery.Incremental.run inc
          ~log_overlay:(List.rev log_sink.sk_writes) ~data_overlay:!data_overlay
          ~log_device:frozen_log ~data_device:frozen_data
    | None ->
        (* Multi-stream: the synthesized media still cost only journal
           folding, but each point pays a full recovery pass — there is
           no single verified-prefix watermark to increment over. *)
        Dbms.Recovery.run ~log_device:frozen_log ~data_device:frozen_data
          ~wal_config:prep.p_wal_config ~pool_config:prep.p_pool_config
  in
  let audit =
    Audit.check_sorted ~model:cur.model ~acked:cur.acked ~n_acked:cur.n_acked
      ~recovery
  in
  let invariant_violations = violations_until prep at_ns in
  {
    v_kind = prep.p_kind;
    v_event_index = event_index;
    v_at_ns = at_ns;
    v_acked = cur.n_acked;
    v_lost = List.length audit.Audit.durability.Rapilog.Durability.lost;
    v_extra = List.length audit.Audit.durability.Rapilog.Durability.extra;
    v_state_exact = audit.Audit.state_exact;
    v_diff_count = audit.Audit.diff_count;
    v_invariant_violations = invariant_violations;
    v_buffered_at_cut = Ring_state.bytes_used cur.replica;
    v_media_crc =
      (if config.media_digests then media_digest ~log:frozen_log ~data:frozen_data
       else -1);
    v_stats = Dbms.Recovery.stats recovery;
    (* Journal sweeps support only the plain Rapilog mode: no tier. *)
    v_tenant_acked = 0;
    v_tenant_lost = 0;
    v_tenant_extra = 0;
    v_tenant_breaks = 0;
    v_contract_ok =
      Rapilog.Durability.holds audit.Audit.durability
      && audit.Audit.state_exact
      && invariant_violations = 0;
  }

(* Contiguous candidate ranges, at most [max_chunks] of them. The chunk
   count is a function of the point count alone — never of the worker
   count — so the work partition (and therefore every cursor's replay
   prefix) is identical at any parallelism, which is what makes the
   parallel sweep bit-identical to the serial one by construction. *)
let max_chunks = 16

let chunk_ranges n =
  let chunks = min n max_chunks in
  List.init chunks (fun i -> (n * i / chunks, n * (i + 1) / chunks))

let sweep_journal ?jobs config =
  let preps = List.map (fun kind -> enumerate_journal config kind) config.kinds in
  (* Within each kind the chunks are handed out in descending
     event-index order: the latest chunks replay the longest journal
     prefix, so starting them first keeps the stragglers off the
     critical path. Results are re-emitted below in canonical
     kind-major ascending order. *)
  let tasks =
    List.concat
      (List.mapi
         (fun order prep ->
           let n = Array.length prep.p_enum.e_candidates in
           List.rev_map (fun (lo, hi) -> (order, prep, lo, hi)) (chunk_ranges n))
         preps)
  in
  let chunk_results =
    Parallel.map ?jobs
      (fun (order, prep, lo, hi) ->
        let cur = cursor_create prep in
        let out = ref [] in
        for i = lo to hi - 1 do
          let event_index, at_ns = prep.p_enum.e_candidates.(i) in
          out := reconstruct_point config prep cur ~event_index ~at_ns :: !out
        done;
        ((order, lo), List.rev !out))
      tasks
  in
  let verdicts =
    chunk_results
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.concat_map snd
  in
  assemble config
    ~boundaries_by_kind:
      (List.map (fun p -> (p.p_kind, p.p_enum.e_boundaries)) preps)
    verdicts
