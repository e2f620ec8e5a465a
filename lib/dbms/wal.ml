open Desim

type config = {
  master_lba : int;
  log_start_lba : int;
  flush_after_write : bool;
  streams : int;
  stream_stride_sectors : int;
}

let default_config =
  {
    master_lba = 0;
    log_start_lba = 8;
    flush_after_write = false;
    streams = 1;
    stream_stride_sectors = 1 lsl 16;
  }

let stream_start_lba config s = config.log_start_lba + (s * config.stream_stride_sectors)

type wal_metrics = {
  wm_force_write : Metrics.Histogram.t;  (* physical write of one force *)
  wm_appends : Metrics.Counter.t;
  wm_append_bytes : Metrics.Counter.t;
}

(* One independent append stream: its own byte sequence (per-stream LSNs
   are offsets into it), its own durable prefix, its own force mutex —
   so two streams' device writes overlap in time — and its own device
   region starting at [s_start_lba]. With [streams = 1] there is exactly
   one of these over the region at [log_start_lba], and every code path
   below reduces to the single-log behaviour byte for byte. *)
type stream_state = {
  s_buf : Buffer.t;
      (* log bytes from [s_base] onwards: the tail a force can still
         need, see [compact] *)
  mutable s_base : int;  (* stream offset of [Buffer.nth s_buf 0] *)
  mutable s_flushed : Lsn.t;
  s_mutex : Resource.Mutex.t;
  mutable s_pending : int;  (* committers inside {!force_batched} *)
  mutable s_ewma_ns : int;  (* EWMA of this stream's device write latency *)
  s_start_lba : int;
}

type t = {
  config : config;
  device : Storage.Block.t;
  sim : Sim.t;
  streams : stream_state array;
  mutable policy : Commit_policy.t;
  mutable forces : int;
  force_bytes : Stats.Sample.t;
  (* Cross-stream commit-dependency watermark: slot [s] carries the
     highest per-stream LSN any committed transaction has depended on.
     The engine folds it into every commit's dependency vector (and
     publishes the vector back), which totally orders multi-stream
     commits: a commit record can only be valid after crash if every
     earlier commit's dependencies are durable too. Mutated without a
     lock — the simulation is cooperative and the read-modify-write has
     no blocking point. *)
  dep_watermark : int array;
  metrics : wal_metrics option;
}

(* Bytes of dead prefix a stream keeps before [compact] drops them: its
   initial buffer size, so a stream compacts about once per 64 KiB
   forced. *)
let compact_after = 65536

let create sim config ~device =
  assert (config.master_lba < config.log_start_lba);
  assert (config.streams >= 1);
  if config.streams > 1 then begin
    assert (config.stream_stride_sectors > 0);
    assert (
      stream_start_lba config config.streams
      <= (Storage.Block.info device).Storage.Block.capacity_sectors)
  end;
  {
    config;
    device;
    sim;
    streams =
      Array.init config.streams (fun s ->
          {
            s_buf = Buffer.create compact_after;
            s_base = 0;
            s_flushed = Lsn.zero;
            s_mutex = Resource.Mutex.create sim;
            s_pending = 0;
            s_ewma_ns = 0;
            s_start_lba = stream_start_lba config s;
          });
    policy = Commit_policy.default;
    forces = 0;
    force_bytes = Stats.Sample.create ();
    dep_watermark = Array.make config.streams 0;
    metrics =
      Option.map
        (fun reg ->
          {
            wm_force_write = Metrics.histogram reg "wal.force_write";
            wm_appends = Metrics.counter reg "wal.appends";
            wm_append_bytes = Metrics.counter reg "wal.append_bytes";
          })
        (Metrics.recording ());
  }

let create_resumed sim (config : config) ~device ~flushed ~tail =
  assert (config.streams = 1);
  let t = create sim config ~device in
  let st = t.streams.(0) in
  let ss = (Storage.Block.info device).Storage.Block.sector_size in
  let flushed_b = Lsn.to_int flushed in
  assert (String.length tail = flushed_b mod ss);
  st.s_base <- flushed_b / ss * ss;
  Buffer.add_string st.s_buf tail;
  st.s_flushed <- flushed;
  t

let stream_count t = t.config.streams
let set_policy t policy = t.policy <- policy
let policy t = t.policy
let dep_watermark t = t.dep_watermark

let append ?(stream = 0) t record =
  let st = t.streams.(stream) in
  let before = Buffer.length st.s_buf in
  Log_record.encode_into record st.s_buf;
  (match t.metrics with
  | Some m ->
      Metrics.Counter.incr m.wm_appends;
      Metrics.Counter.add m.wm_append_bytes (Buffer.length st.s_buf - before)
  | None -> ());
  Lsn.of_int (st.s_base + Buffer.length st.s_buf)

let end_lsn ?(stream = 0) t =
  let st = t.streams.(stream) in
  Lsn.of_int (st.s_base + Buffer.length st.s_buf)

let flushed_lsn ?(stream = 0) t = t.streams.(stream).s_flushed
let ewma_ns ?(stream = 0) t = t.streams.(stream).s_ewma_ns

let sector_size t = (Storage.Block.info t.device).Storage.Block.sector_size

(* Bytes [from_b, to_b) of the stream as whole sectors, zero-padded past
   the stream end: one allocation, the device image. *)
let sector_image st ~from_b ~to_b =
  assert (from_b >= st.s_base);
  let available = min to_b (st.s_base + Buffer.length st.s_buf) in
  let image = Bytes.create (to_b - from_b) in
  Buffer.blit st.s_buf (from_b - st.s_base) image 0 (available - from_b);
  Bytes.fill image (available - from_b) (to_b - available) '\000';
  Bytes.unsafe_to_string image

(* The stream keeps only what a force can still write: from the sector
   holding [s_flushed], or the sector before it when [s_flushed] is
   sector-aligned (a force with nothing new rewrites that one). The
   logger or the device holds everything older. Once that dead prefix
   passes [compact_after] bytes, the kept tail moves to the front of the
   buffer, which keeps its storage. *)
let compact st ~ss =
  let flushed = Lsn.to_int st.s_flushed in
  let keep_from = if flushed mod ss = 0 then flushed - ss else flushed / ss * ss in
  if keep_from - st.s_base > compact_after then begin
    let tail =
      Buffer.sub st.s_buf (keep_from - st.s_base)
        (st.s_base + Buffer.length st.s_buf - keep_from)
    in
    Buffer.clear st.s_buf;
    Buffer.add_string st.s_buf tail;
    st.s_base <- keep_from
  end

let do_force t st =
  let ss = sector_size t in
  let target_end = st.s_base + Buffer.length st.s_buf in
  let from_b = Lsn.to_int st.s_flushed / ss * ss in
  let to_b = (target_end + ss - 1) / ss * ss in
  (* Nothing new, but the caller insists on a physical write (an engine
     without group commit): rewrite the tail sector. *)
  let from_b = if from_b >= to_b then max st.s_base (to_b - ss) else from_b in
  if t.config.streams > 1 then
    assert (to_b <= t.config.stream_stride_sectors * ss);
  if to_b > from_b then begin
    let data = sector_image st ~from_b ~to_b in
    let write_started = Time.to_ns (Sim.now t.sim) in
    Storage.Block.write t.device ~lba:(st.s_start_lba + (from_b / ss)) data;
    if t.config.flush_after_write then Storage.Block.flush t.device;
    let finished = Time.to_ns (Sim.now t.sim) in
    (* The adaptive policy's latency estimate: observed unconditionally
       (pure integer state, no events, no rng) so the simulated history
       stays bit-identical whether or not any policy reads it. *)
    st.s_ewma_ns <-
      Commit_policy.ewma_update ~prev:st.s_ewma_ns ~obs:(finished - write_started);
    match t.metrics with
    | Some m ->
        Metrics.Histogram.observe m.wm_force_write
          (float_of_int (finished - write_started) /. 1e3)
    | None -> ()
  end;
  t.forces <- t.forces + 1;
  Stats.Sample.add t.force_bytes (float_of_int (to_b - from_b));
  st.s_flushed <- Lsn.of_int target_end;
  compact st ~ss

let force ?(stream = 0) t target =
  let st = t.streams.(stream) in
  assert (Lsn.(target <= end_lsn ~stream t));
  if Lsn.(st.s_flushed < target) then
    Resource.Mutex.with_lock st.s_mutex (fun () ->
        (* A force that completed while we waited may cover us (group
           commit); only hit the device if it did not. *)
        if Lsn.(st.s_flushed < target) then do_force t st)

(* The commit path's force: same durability contract as {!force}, plus
   the policy's gather wait. [Fixed 1] and [Serial] skip the wait
   without scheduling anything, so the default configuration's event
   history is identical to {!force}. *)
let force_batched ?(stream = 0) t target =
  let st = t.streams.(stream) in
  assert (Lsn.(target <= end_lsn ~stream t));
  if Lsn.(st.s_flushed < target) then begin
    st.s_pending <- st.s_pending + 1;
    (match t.policy with
    | Commit_policy.Serial | Commit_policy.Fixed 1 -> ()
    | policy ->
        let entered = Time.to_ns (Sim.now t.sim) in
        let rec gather () =
          if Lsn.(st.s_flushed < target) then begin
            let wait =
              Commit_policy.decide policy ~ewma_ns:st.s_ewma_ns
                ~pending:st.s_pending
                ~waited_ns:(Time.to_ns (Sim.now t.sim) - entered)
            in
            if wait > 0 then begin
              Process.sleep (Time.ns wait);
              gather ()
            end
          end
        in
        gather ());
    Resource.Mutex.with_lock st.s_mutex (fun () ->
        if Lsn.(st.s_flushed < target) then do_force t st);
    st.s_pending <- st.s_pending - 1
  end

let force_exclusive ?(stream = 0) t =
  let st = t.streams.(stream) in
  Resource.Mutex.with_lock st.s_mutex (fun () -> do_force t st)

let master_magic = 0x4D535452l (* "MSTR" *)

let encode_master t lsn =
  let ss = sector_size t in
  let buf = Bytes.make ss '\000' in
  Bytes.set_int32_le buf 0 master_magic;
  Bytes.set_int64_le buf 4 (Int64.of_int (Lsn.to_int lsn));
  Bytes.set_int32_le buf 12 (Crc32.digest_bytes buf ~pos:0 ~len:12);
  Bytes.unsafe_to_string buf

let write_master t lsn =
  Storage.Block.write t.device ~fua:true ~lba:t.config.master_lba (encode_master t lsn)

let read_master config ~device =
  let sector =
    Storage.Block.durable_read device ~lba:config.master_lba ~sectors:1
  in
  if String.get_int32_le sector 0 <> master_magic then None
  else if Crc32.digest sector ~pos:0 ~len:12 <> String.get_int32_le sector 12 then
    None
  else Some (Lsn.of_int (Int64.to_int (String.get_int64_le sector 4)))

let base_lsn ?(stream = 0) t = Lsn.of_int t.streams.(stream).s_base
let forces t = t.forces
let force_bytes t = t.force_bytes
let stream_contents ?(stream = 0) t = Buffer.contents t.streams.(stream).s_buf
