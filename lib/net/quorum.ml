open Desim

(* ------------------------------------------------------------------ *)
(* The message-level state machine                                     *)
(* ------------------------------------------------------------------ *)

module Protocol = struct
  type entry = { e_term : int; e_seq : int }

  type msg =
    | Append of { lterm : int; entry : entry }
    | Ack of { acker : int; aterm : int; seq : int }
    | Elect of { cterm : int; candidate : int; wm_term : int; wm_seq : int }
    | Adopt of { adopter : int; aterm : int }

  type lead = Primary | Replica_leader of int | Candidate of int | No_leader

  type node = {
    mutable alive : bool;
    mutable nterm : int;
    mutable log : entry list;  (* newest first; always seqs len..1 *)
    mutable inbox : msg list;  (* oldest first *)
    mutable outbox : msg list;  (* oldest first *)
  }

  type t = {
    n : int;
    k : int;
    nodes : node array;
    mutable prim_alive : bool;
    mutable primary_log : entry list;  (* newest first *)
    mutable leadership : lead;
    mutable term : int;
    mutable adopt_count : int;
    mutable acks : (int * int) list;  (* seq -> distinct acks this leadership *)
    mutable commit : int;
    mutable committed_rev : entry list;  (* ghost: the committed prefix *)
    mutable flagged : string list;  (* violations recorded along the way *)
  }

  let create ~replicas ~quorum =
    if replicas < 1 || quorum < 1 || quorum > replicas then
      invalid_arg "Quorum.Protocol.create: need 1 <= quorum <= replicas";
    {
      n = replicas;
      k = quorum;
      nodes =
        Array.init replicas (fun _ ->
            { alive = true; nterm = 1; log = []; inbox = []; outbox = [] });
      prim_alive = true;
      primary_log = [];
      leadership = Primary;
      term = 1;
      adopt_count = 0;
      acks = [];
      commit = 0;
      committed_rev = [];
      flagged = [];
    }

  let copy t =
    {
      t with
      nodes = Array.map (fun node -> { node with alive = node.alive }) t.nodes;
    }

  let mk_log len = List.init len (fun i -> { e_term = 1; e_seq = len - i })

  let seed t ~primary_len ~prefixes ~committed ~term =
    if Array.length prefixes <> t.n then
      invalid_arg "Quorum.Protocol.seed: one prefix per replica";
    t.primary_log <- mk_log primary_len;
    Array.iteri
      (fun r node ->
        node.log <- mk_log prefixes.(r);
        node.nterm <- 1;
        node.inbox <- [];
        node.outbox <- [])
      t.nodes;
    t.committed_rev <- mk_log committed;
    t.commit <- committed;
    t.term <- max 1 term;
    t.leadership <- Primary;
    t.prim_alive <- true;
    t.adopt_count <- 0;
    t.acks <- [];
    t.flagged <- []

  (* -- observers -------------------------------------------------- *)

  let lead t = t.leadership
  let term t = t.term
  let commit_watermark t = t.commit
  let committed t = List.rev t.committed_rev
  let adopts t = t.adopt_count
  let adoption_quorum t = t.n - t.k + 1
  let primary_alive t = t.prim_alive
  let node_alive t r = t.nodes.(r).alive
  let node_term t r = t.nodes.(r).nterm
  let node_log t r = List.rev t.nodes.(r).log
  let inbox t r = t.nodes.(r).inbox
  let outbox t r = t.nodes.(r).outbox

  let log_watermark log =
    match log with [] -> (0, 0) | e :: _ -> (e.e_term, e.e_seq)

  let watermark t r = log_watermark t.nodes.(r).log

  let best_candidate t =
    let best = ref None in
    Array.iteri
      (fun r node ->
        if node.alive then
          let wm = log_watermark node.log in
          match !best with
          | None -> best := Some (r, wm)
          | Some (_, bwm) -> if compare wm bwm > 0 then best := Some (r, wm))
      t.nodes;
    Option.map fst !best

  let flag t msg = t.flagged <- msg :: t.flagged

  let leader_log t =
    match t.leadership with
    | Primary when t.prim_alive -> Some t.primary_log
    | Replica_leader c when t.nodes.(c).alive -> Some t.nodes.(c).log
    | _ -> None

  (* -- operations ------------------------------------------------- *)

  let require ok op = if not ok then invalid_arg ("Quorum.Protocol." ^ op)

  let clear_all_channels t =
    Array.iter
      (fun node ->
        node.inbox <- [];
        node.outbox <- [])
      t.nodes

  let can_append t = leader_log t <> None

  let append t =
    require (can_append t) "append: no live leader";
    let log, set_log =
      match t.leadership with
      | Primary -> (t.primary_log, fun l -> t.primary_log <- l)
      | Replica_leader c -> (t.nodes.(c).log, fun l -> t.nodes.(c).log <- l)
      | Candidate _ | No_leader -> assert false
    in
    let _, len = log_watermark log in
    let entry = { e_term = t.term; e_seq = len + 1 } in
    set_log (entry :: log);
    let leader_id =
      match t.leadership with Replica_leader c -> c | _ -> -1
    in
    Array.iteri
      (fun r node ->
        if r <> leader_id && node.alive then
          node.inbox <- node.inbox @ [ Append { lterm = t.term; entry } ])
      t.nodes;
    entry

  let can_deliver t r = t.nodes.(r).alive && t.nodes.(r).inbox <> []

  let log_nth log len s = List.nth log (len - s)

  let deliver t r =
    require (can_deliver t r) "deliver: disabled";
    let node = t.nodes.(r) in
    match node.inbox with
    | [] -> assert false
    | m :: rest -> (
        node.inbox <- rest;
        match m with
        | Append { lterm; entry } ->
            if lterm >= node.nterm then begin
              node.nterm <- lterm;
              let len = List.length node.log in
              if entry.e_seq = len + 1 then node.log <- entry :: node.log
              else if entry.e_seq <= len then begin
                if log_nth node.log len entry.e_seq <> entry then begin
                  (* Truncate-and-replace the conflicting suffix. A
                     committed entry in the dropped suffix is a safety
                     violation — record it, don't hide it. *)
                  let rec split dropped = function
                    | e :: tl when e.e_seq >= entry.e_seq ->
                        split (e :: dropped) tl
                    | kept -> (dropped, kept)
                  in
                  let dropped, kept = split [] node.log in
                  List.iter
                    (fun e ->
                      if List.mem e t.committed_rev then
                        flag t
                          (Printf.sprintf
                             "truncated committed entry (term %d, seq %d) on \
                              node %d"
                             e.e_term e.e_seq r))
                    dropped;
                  node.log <- entry :: kept
                end
                (* else: duplicate of what we already hold — drop. *)
              end
              else flag t "append gap: link reordered or fabricated";
              node.outbox <-
                node.outbox @ [ Ack { acker = r; aterm = lterm; seq = entry.e_seq } ]
            end
        | Elect { cterm; candidate = _; wm_term; wm_seq } ->
            (* The vote rule: adopt only a newer term whose watermark is
               not behind ours — a candidate missing a committed entry
               is refused by every replica holding it, and there are at
               least k of those, so at most n - k < n - k + 1 can
               adopt it. *)
            if cterm > node.nterm && (wm_term, wm_seq) >= log_watermark node.log
            then begin
              node.nterm <- cterm;
              node.outbox <- node.outbox @ [ Adopt { adopter = r; aterm = cterm } ]
            end
        | Ack _ | Adopt _ ->
            (* Responses travel on the outbox, never here. *)
            assert false)

  let can_collect t r =
    t.nodes.(r).outbox <> []
    &&
    match t.leadership with
    | Primary -> t.prim_alive
    | Replica_leader c | Candidate c -> t.nodes.(c).alive
    | No_leader -> false

  let commit_to t log seq =
    let len = List.length log in
    for s = t.commit + 1 to seq do
      let e = log_nth log len s in
      match List.find_opt (fun c -> c.e_seq = s) t.committed_rev with
      | Some c when c <> e ->
          flag t (Printf.sprintf "committed seq %d rewritten" s)
      | Some _ -> ()
      | None -> t.committed_rev <- e :: t.committed_rev
    done;
    t.commit <- seq

  let record_ack t seq =
    match leader_log t with
    | None -> ()
    | Some log ->
        let count =
          (match List.assoc_opt seq t.acks with Some c -> c | None -> 0) + 1
        in
        t.acks <- (seq, count) :: List.remove_assoc seq t.acks;
        if count = t.k then
          if seq > t.commit then begin
            (* Prefix closure: per-link FIFO means each of the k ackers
               acked every earlier seq first, so those quorums completed
               before this one. *)
            if seq <> t.commit + 1 then
              flag t (Printf.sprintf "ack quorum out of order at seq %d" seq);
            commit_to t log seq
          end
          else begin
            (* Re-commit under a new leadership: the identity at seq
               must match the ghost. *)
            let len = List.length log in
            let ghost =
              List.find_opt (fun c -> c.e_seq = seq) t.committed_rev
            in
            match ghost with
            | Some g when g <> log_nth log len seq ->
                flag t (Printf.sprintf "committed seq %d rewritten" seq)
            | _ -> ()
          end

  let become_leader t c =
    t.leadership <- Replica_leader c;
    t.acks <- [];
    clear_all_channels t;
    (* Full-log catch-up on the fresh channels: prefix matching is
       re-established wholesale, replicas truncate-and-replace any
       divergent suffix (which can never include a committed entry —
       the vote rule made sure the winner holds them all). *)
    let catch_up = List.rev t.nodes.(c).log in
    Array.iteri
      (fun r node ->
        if r <> c && node.alive then
          node.inbox <-
            node.inbox
            @ List.map (fun entry -> Append { lterm = t.term; entry }) catch_up)
      t.nodes

  let collect t r =
    require (can_collect t r) "collect: disabled";
    let node = t.nodes.(r) in
    match node.outbox with
    | [] -> assert false
    | m :: rest -> (
        node.outbox <- rest;
        match m with
        | Ack { aterm; seq; _ } -> if aterm = t.term then record_ack t seq
        | Adopt { aterm; _ } -> (
            match t.leadership with
            | Candidate c when aterm = t.term ->
                t.adopt_count <- t.adopt_count + 1;
                if t.adopt_count >= adoption_quorum t then become_leader t c
            | _ -> ())
        | Append _ | Elect _ -> assert false)

  let can_lose_primary t = t.prim_alive

  let lose_primary t =
    require (can_lose_primary t) "lose_primary: already dead";
    t.prim_alive <- false;
    if t.leadership = Primary then t.leadership <- No_leader;
    (* The wire is not a durability domain: the dead machine was an
       endpoint of every channel. *)
    clear_all_channels t

  let can_lose t r = t.nodes.(r).alive

  let lose t r =
    require (can_lose t r) "lose: already dead";
    let node = t.nodes.(r) in
    node.alive <- false;
    node.inbox <- [];
    node.outbox <- [];
    match t.leadership with
    | Replica_leader c | Candidate c when c = r ->
        t.leadership <- No_leader;
        clear_all_channels t
    | _ -> ()

  let can_campaign t r = t.leadership = No_leader && t.nodes.(r).alive

  let campaign t r =
    require (can_campaign t r) "campaign: disabled";
    let term =
      1
      + Array.fold_left
          (fun acc node -> if node.alive then max acc node.nterm else acc)
          t.term t.nodes
    in
    t.term <- term;
    t.leadership <- Candidate r;
    t.adopt_count <- 1;
    t.acks <- [];
    clear_all_channels t;
    let cand = t.nodes.(r) in
    cand.nterm <- term;
    let wm_term, wm_seq = log_watermark cand.log in
    Array.iteri
      (fun i node ->
        if i <> r && node.alive then
          node.inbox <-
            node.inbox @ [ Elect { cterm = term; candidate = r; wm_term; wm_seq } ])
      t.nodes;
    if t.adopt_count >= adoption_quorum t then become_leader t r

  let check t =
    let issues = ref (List.rev t.flagged) in
    let add msg = issues := msg :: !issues in
    let holds log e = List.mem e log in
    List.iter
      (fun e ->
        let held =
          (t.prim_alive && holds t.primary_log e)
          || Array.exists (fun node -> node.alive && holds node.log e) t.nodes
        in
        if not held then
          add
            (Printf.sprintf "committed entry (term %d, seq %d) on no live node"
               e.e_term e.e_seq))
      t.committed_rev;
    (match leader_log t with
    | Some log ->
        List.iter
          (fun e ->
            if not (holds log e) then
              add
                (Printf.sprintf
                   "leader log missing committed entry (term %d, seq %d)"
                   e.e_term e.e_seq))
          t.committed_rev
    | None -> ());
    List.rev !issues
end

(* ------------------------------------------------------------------ *)
(* The simulated runtime                                               *)
(* ------------------------------------------------------------------ *)

type config = { replicas : int; quorum : int; links : Link.config list }

let majority n = (n / 2) + 1
let default = { replicas = 3; quorum = majority 3; links = [ Link.default ] }

let config_errors config =
  let bounds =
    if config.replicas < 1 then
      [ Printf.sprintf "%d replicas; the cluster needs at least one" config.replicas ]
    else if config.quorum < 0 || config.quorum > config.replicas then
      [
        Printf.sprintf
          "quorum %d of %d replicas; need 0 <= quorum <= replicas (majority \
           is %d)"
          config.quorum config.replicas (majority config.replicas);
      ]
    else []
  in
  (* No retransmit: a replica acks entries past a gap, so one lost entry
     or ack parks the admitting writer — and every later commit behind
     it — forever. *)
  let lossy =
    List.concat
      (List.mapi
         (fun i (lc : Link.config) ->
           if lc.Link.drop_probability > 0. then
             [
               Printf.sprintf
                 "link %d drops %g of its messages; the quorum runtime has no \
                  retransmit, so one lost entry or ack stalls every later \
                  commit (need drop_probability = 0)"
                 i lc.Link.drop_probability;
             ]
           else [])
         config.links)
  in
  bounds @ lossy

let merge_prefix per_node_entries =
  let by_seq = Hashtbl.create 64 in
  List.iter
    (fun entries ->
      let next = ref 1 in
      List.iter
        (fun ((seq, _, _) as entry) ->
          if seq = !next then begin
            if not (Hashtbl.mem by_seq seq) then Hashtbl.add by_seq seq entry;
            incr next
          end)
        entries)
    per_node_entries;
  let rec walk acc seq =
    match Hashtbl.find_opt by_seq seq with
    | Some entry -> walk (entry :: acc) (seq + 1)
    | None -> List.rev acc
  in
  walk [] 1

type election = {
  el_term : int;
  el_leader : int;
  el_adopters : int;
  el_quorum : bool;
}

type message = { m_seq : int; m_lba : int; m_data : string }

(* On-wire framing overhead charged against link bandwidth; the append
   header also carries the leader term. *)
let header_bytes = 32
let ack_bytes = 16

type node = {
  id : int;
  replica : Replica.t;
  data_link : message Link.t;
  ack_link : int Link.t;
  mutable alive : bool;
}

type t = {
  sim : Sim.t;
  config : config;
  nodes : node array;
  (* Writers parked until their seq reaches the quorum. *)
  waiters : (int, unit Process.resumer) Hashtbl.t;
  ack_counts : (int, int) Hashtbl.t;
  mutable commit : int;
  mutable n_sent : int;
  mutable n_acks : int;
  mutable prim_alive : bool;
  mutable term : int;
  mutable last_election : election option;
  m_replicate : Metrics.Histogram.t option;
  m_quorum_wait : Metrics.Histogram.t option;
}

let on_ack t seq =
  t.n_acks <- t.n_acks + 1;
  (* Acks beyond the k-th for an already-committed seq carry no new
     information — without this guard they would restart the counter
     and re-trigger the quorum path. *)
  if t.prim_alive && seq > t.commit then begin
    let count =
      (match Hashtbl.find_opt t.ack_counts seq with Some c -> c | None -> 0) + 1
    in
    if count >= t.config.quorum then begin
      (* Per-link FIFO in both directions makes quorums complete in seq
         order (each acker acked every earlier seq first). *)
      assert (seq = t.commit + 1);
      Hashtbl.remove t.ack_counts seq;
      t.commit <- seq;
      match Hashtbl.find_opt t.waiters seq with
      | Some resume ->
          Hashtbl.remove t.waiters seq;
          resume ()
      | None -> ()
    end
    else Hashtbl.replace t.ack_counts seq count
  end

let on_data node msg =
  Replica.receive node.replica ~seq:msg.m_seq ~lba:msg.m_lba ~data:msg.m_data;
  (* The replica's buffer is its durability domain: ack on receipt, off
     the replica's own drain path. *)
  Link.send node.ack_link ~bytes:ack_bytes msg.m_seq

(* Runs in the admitting writer's process, straight after the ring push.
   Sends never block; the writer parks until the k-th ack. No link pump
   can fire between the sends and the suspend (no yield), so an ack
   cannot race a missing waiter. *)
let replicate_hook t ~seq ~lba ~data =
  let started =
    match t.m_replicate with Some _ -> Metrics.Span.start t.sim | None -> 0
  in
  t.n_sent <- t.n_sent + 1;
  let bytes = String.length data + header_bytes in
  Array.iter
    (fun node ->
      if node.alive then
        Link.send node.data_link ~bytes { m_seq = seq; m_lba = lba; m_data = data })
    t.nodes;
  let wait_started =
    match t.m_quorum_wait with Some _ -> Metrics.Span.start t.sim | None -> 0
  in
  (* k = 0: nothing to wait for, the commit watermark advances at send. *)
  if t.config.quorum = 0 then t.commit <- seq
  else if t.commit < seq then
    Process.suspend (fun resume -> Hashtbl.replace t.waiters seq resume);
  (match t.m_quorum_wait with
  | Some hist -> Metrics.Span.finish hist t.sim wait_started
  | None -> ());
  match t.m_replicate with
  | Some hist -> Metrics.Span.finish hist t.sim started
  | None -> ()

let link_config config i =
  match config.links with
  | [] -> Link.default
  | links -> List.nth links (i mod List.length links)

let attach sim (config : config) ~logger ~make_device =
  (match config_errors config with
  | [] -> ()
  | errs -> invalid_arg ("Quorum.attach: " ^ String.concat "; " errs));
  let self = ref None in
  let the t = match !t with Some t -> t | None -> assert false in
  let dummy_message = { m_seq = 0; m_lba = 0; m_data = "" } in
  let nodes =
    Array.init config.replicas (fun i ->
        let replica = Replica.create sim ~device:(make_device i) () in
        (* Per node: ack link first, then data link — rng split order is
           fixed by construction order, part of the deterministic
           schedule. *)
        let lc = link_config config i in
        let ack_link =
          Link.create sim
            ~name:(Printf.sprintf "quorum-ack-%d" i)
            lc ~dummy:0
            ~deliver:(fun seq -> on_ack (the self) seq)
        in
        let data_link =
          Link.create sim
            ~name:(Printf.sprintf "quorum-data-%d" i)
            lc ~dummy:dummy_message
            ~deliver:(fun msg ->
              let t = the self in
              on_data t.nodes.(i) msg)
        in
        { id = i; replica; data_link; ack_link; alive = true })
  in
  let metrics = Metrics.recording () in
  let t =
    {
      sim;
      config;
      nodes;
      waiters = Hashtbl.create 64;
      ack_counts = Hashtbl.create 64;
      commit = 0;
      n_sent = 0;
      n_acks = 0;
      prim_alive = true;
      term = 1;
      last_election = None;
      m_replicate =
        Option.map (fun reg -> Metrics.histogram reg "logger.replicate") metrics;
      m_quorum_wait =
        Option.map (fun reg -> Metrics.histogram reg "logger.quorum_wait") metrics;
    }
  in
  self := Some t;
  Rapilog.Trusted_logger.set_replication logger (replicate_hook t);
  t

let config t = t.config
let node_replica t i = t.nodes.(i).replica

let live_nodes t =
  Array.to_list t.nodes
  |> List.filter_map (fun node -> if node.alive then Some node.id else None)

let commit_seq t = t.commit
let sent t = t.n_sent
let acks t = t.n_acks

let wire_in_flight t =
  Array.fold_left
    (fun acc node ->
      acc + Link.in_flight node.data_link + Link.in_flight node.ack_link)
    0 t.nodes

let sever_node_links node =
  Link.sever node.data_link;
  Link.sever node.ack_link

let primary_lost t =
  t.prim_alive <- false;
  Array.iter sever_node_links t.nodes

let node_lost t i =
  let node = t.nodes.(i) in
  node.alive <- false;
  sever_node_links node

let partition_node t i =
  let node = t.nodes.(i) in
  Link.partition node.data_link;
  Link.partition node.ack_link

let heal_node t i =
  let node = t.nodes.(i) in
  Link.heal node.data_link;
  Link.heal node.ack_link

let node_partitioned t i =
  Link.partitioned t.nodes.(i).data_link
  || Link.partitioned t.nodes.(i).ack_link

(* k >= 1: run the real protocol state machine over the live cluster's
   watermarks — what the model checker proves is what executes here. *)
let elect t =
  let p =
    Protocol.create ~replicas:t.config.replicas ~quorum:t.config.quorum
  in
  Protocol.seed p ~primary_len:t.n_sent
    ~prefixes:(Array.map (fun node -> Replica.prefix node.replica) t.nodes)
    ~committed:t.commit ~term:t.term;
  Protocol.lose_primary p;
  Array.iter (fun node -> if not node.alive then Protocol.lose p node.id) t.nodes;
  match Protocol.best_candidate p with
  | None ->
      { el_term = t.term; el_leader = -1; el_adopters = 0; el_quorum = false }
  | Some c ->
      Protocol.campaign p c;
      for r = 0 to t.config.replicas - 1 do
        while Protocol.can_deliver p r do
          Protocol.deliver p r
        done
      done;
      for r = 0 to t.config.replicas - 1 do
        while Protocol.can_collect p r do
          Protocol.collect p r
        done
      done;
      let quorate =
        match Protocol.lead p with
        | Protocol.Replica_leader c' -> c' = c
        | _ -> false
      in
      if quorate then begin
        match Protocol.check p with
        | [] -> ()
        | issues ->
            failwith
              ("Quorum.handoff: quorate election violated an invariant: "
              ^ String.concat "; " issues)
      end;
      {
        el_term = Protocol.term p;
        el_leader = c;
        el_adopters = Protocol.adopts p;
        el_quorum = quorate;
      }

(* k = 0: no commit ever waited for an ack, so there is no commit quorum
   for an election to intersect. The live replica with the longest
   prefix (lowest id on ties) takes over, non-quorate. *)
let take_over t =
  let leader =
    Array.fold_left
      (fun best node ->
        if
          node.alive
          && (best < 0
             || Replica.prefix node.replica
                > Replica.prefix t.nodes.(best).replica)
        then node.id
        else best)
      (-1) t.nodes
  in
  {
    el_term = (if leader < 0 then t.term else t.term + 1);
    el_leader = leader;
    el_adopters = 0;
    el_quorum = false;
  }

let handoff t =
  let election = if t.config.quorum = 0 then take_over t else elect t in
  t.term <- election.el_term;
  t.last_election <- Some election;
  election

let last_election t = t.last_election

let recovery_log_device t ~primary =
  if not t.prim_alive then ignore (handoff t);
  let info = Storage.Block.info primary in
  let media =
    Storage.Block.Media.create ~sector_size:info.Storage.Block.sector_size
      ~capacity_sectors:info.Storage.Block.capacity_sectors
  in
  (* Frozen copy of the primary's durable media, chunked. *)
  let extent = Storage.Block.durable_extent primary in
  let chunk = 256 in
  let lba = ref 0 in
  while !lba < extent do
    let sectors = min chunk (extent - !lba) in
    Storage.Block.Media.write media ~lba:!lba
      ~data:(Storage.Block.durable_read primary ~lba:!lba ~sectors);
    lba := !lba + sectors
  done;
  (* Overlay the cluster's longest recoverable prefix: every quorum-
     acked seq lives in >= quorum consecutive prefixes, so it survives
     the primary plus any (quorum - 1) replica losses. Applied in seq
     order so a later rewrite of the same sectors wins, exactly as on
     the primary. *)
  let live_entries =
    Array.to_list t.nodes
    |> List.filter_map (fun node ->
           if node.alive then Some (Replica.entries node.replica) else None)
  in
  List.iter
    (fun (_seq, lba, data) -> Storage.Block.Media.write media ~lba ~data)
    (merge_prefix live_entries);
  Storage.Block.of_media ~model:"quorum-log" media
