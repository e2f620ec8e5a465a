(* Tests for the block-device models. *)

open Desim
open Testu

let sector = 512
let data_of char sectors = String.make (sector * sectors) char

let small_hdd =
  {
    Storage.Hdd.default_7200rpm with
    Storage.Hdd.tracks = 1024;
    sectors_per_track = 1000;
  }

let make_hdd sim = Storage.Hdd.create sim small_hdd
let make_ssd sim = Storage.Ssd.create sim Storage.Ssd.default

(* -- Media ----------------------------------------------------------- *)

let media_reads_zero () =
  let media = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:100 in
  let data = Storage.Block.Media.read media ~lba:5 ~sectors:2 in
  Alcotest.(check string) "zeros" (String.make (2 * sector) '\000') data

let media_roundtrip () =
  let media = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:100 in
  Storage.Block.Media.write media ~lba:10 ~data:(data_of 'x' 3);
  Alcotest.(check string) "roundtrip" (data_of 'x' 3)
    (Storage.Block.Media.read media ~lba:10 ~sectors:3);
  Alcotest.(check int) "extent" 13 (Storage.Block.Media.extent media)

let media_overwrite () =
  let media = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:100 in
  Storage.Block.Media.write media ~lba:0 ~data:(data_of 'a' 2);
  Storage.Block.Media.write media ~lba:1 ~data:(data_of 'b' 1);
  let read = Storage.Block.Media.read media ~lba:0 ~sectors:2 in
  Alcotest.(check string) "first sector intact" (data_of 'a' 1)
    (String.sub read 0 sector);
  Alcotest.(check string) "second replaced" (data_of 'b' 1)
    (String.sub read sector sector)

let media_torn_prefix_prop =
  prop "torn write persists only a prefix" QCheck2.Gen.(int_range 0 10_000)
    (fun salt ->
      let media =
        Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:64
      in
      let rng = Rng.create (Int64.of_int salt) in
      Storage.Block.Media.write_torn media ~rng ~lba:0 ~data:(data_of 'z' 8);
      let read = Storage.Block.Media.read media ~lba:0 ~sectors:8 in
      (* Some prefix is 'z's, the rest zeros, with no interleaving. *)
      let rec scan i in_tail =
        if i >= 8 then true
        else
          let s = String.sub read (i * sector) sector in
          if String.equal s (data_of 'z' 1) then (not in_tail) && scan (i + 1) false
          else if String.equal s (String.make sector '\000') then scan (i + 1) true
          else false
      in
      scan 0 false)

(* -- Media overlays ------------------------------------------------- *)

let media_overlay_stays_live () =
  let m = Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:64 in
  Storage.Block.Media.write m ~lba:0 ~data:(data_of 'a' 1);
  let ov = Storage.Block.Media.overlay m in
  Storage.Block.Media.write ov ~lba:0 ~data:(data_of 'o' 1);
  Storage.Block.Media.write ov ~lba:9 ~data:(data_of 'O' 1);
  (* The overlay captured its writes; the image underneath is untouched. *)
  Alcotest.(check string) "overlay write wins" (data_of 'o' 1)
    (Storage.Block.Media.read ov ~lba:0 ~sectors:1);
  Alcotest.(check string) "base untouched" (data_of 'a' 1)
    (Storage.Block.Media.read m ~lba:0 ~sectors:1);
  Alcotest.(check string) "base lba 9 untouched" (String.make sector '\000')
    (Storage.Block.Media.read m ~lba:9 ~sectors:1);
  (* Later writes to the base show through where the overlay has not
     diverged — the overlay is a live view. *)
  Storage.Block.Media.write m ~lba:20 ~data:(data_of 'n' 1);
  Alcotest.(check string) "overlay reads through" (data_of 'n' 1)
    (Storage.Block.Media.read ov ~lba:20 ~sectors:1)

(* Model check of the page store and its overlays: random 1-8-sector
   writes and torn-prefix writes at any alignment, interleaved across a
   root image and up to 5 live overlays of it, must each read back like
   a sector-map reference. An overlay diverges a whole page at its first
   write there (copy-up), and reads every other page through to the
   root's current contents, so root writes made after the overlay was
   taken must show through exactly where the overlay has not diverged.
   A write leaking into the wrong image, a stale copy-up or a missed
   read-through shows up as a sector mismatch. *)
type image_model = {
  media : Storage.Block.Media.t;
  sectors : (int, string) Hashtbl.t;  (* own sectors written so far *)
  pages : (int, unit) Hashtbl.t;  (* pages an overlay has diverged *)
  extent : int ref;
}

let media_overlay_model_prop =
  let cap = 64 and ps = Storage.Block.Media.page_sectors in
  let zero = String.make sector '\000' in
  let image media extent =
    { media; sectors = Hashtbl.create 16; pages = Hashtbl.create 8; extent = ref extent }
  in
  prop "overlay family matches sector-map reference" ~count:120
    QCheck2.Gen.(small_list (quad (int_bound 3) small_nat small_nat small_nat))
    (fun ops ->
      let root =
        image (Storage.Block.Media.create ~sector_size:sector ~capacity_sectors:cap) 0
      in
      let images = ref [| root |] in
      let root_sector s = Option.value (Hashtbl.find_opt root.sectors s) ~default:zero in
      (* The root diverges no pages: it reads its own sectors. *)
      let expected im s =
        if Hashtbl.mem im.pages (s / ps) then Hashtbl.find im.sectors s
        else root_sector s
      in
      (* The reference write: an overlay copies a page up from the root
         the first time it writes there. *)
      let put im s v =
        let page = s / ps in
        if im != root && not (Hashtbl.mem im.pages page) then begin
          Hashtbl.replace im.pages page ();
          for t = page * ps to ((page + 1) * ps) - 1 do
            Hashtbl.replace im.sectors t (root_sector t)
          done
        end;
        Hashtbl.replace im.sectors s v
      in
      List.iter
        (fun (op, a, b, c) ->
          let n = Array.length !images in
          let im = !images.(a mod n) in
          let sectors = 1 + (b mod 8) in
          let lba = c mod (cap - sectors) in
          let data = data_of (Char.chr (Char.code 'a' + (b / 8 mod 26))) sectors in
          let persisted = if op = 1 then a mod (sectors + 1) else sectors in
          if op = 0 && n <= 5 then
            images :=
              Array.append !images
                [| image (Storage.Block.Media.overlay root.media) !(root.extent) |]
          else begin
            if op = 1 then
              Storage.Block.Media.write_prefix im.media ~lba ~data ~sectors:persisted
            else Storage.Block.Media.write im.media ~lba ~data;
            for s = 0 to persisted - 1 do
              put im (lba + s) (String.sub data (s * sector) sector)
            done;
            if persisted > 0 then im.extent := max !(im.extent) (lba + persisted)
          end)
        ops;
      Array.iteri
        (fun k im ->
          let got = Storage.Block.Media.read im.media ~lba:0 ~sectors:cap in
          let want = String.concat "" (List.init cap (expected im)) in
          if not (String.equal got want) then
            QCheck2.Test.fail_reportf "image %d diverged from reference" k;
          if Storage.Block.Media.extent im.media <> !(im.extent) then
            QCheck2.Test.fail_reportf "image %d extent %d, want %d" k
              (Storage.Block.Media.extent im.media) !(im.extent))
        !images;
      true)

(* -- Block wrapper ---------------------------------------------------- *)

let block_sectors_of_bytes () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      Alcotest.(check int) "exact" 2 (Storage.Block.sectors_of_bytes dev 1024);
      Alcotest.(check int) "round up" 3 (Storage.Block.sectors_of_bytes dev 1025))

let block_info () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      let info = Storage.Block.info dev in
      Alcotest.(check int) "sector size" sector info.Storage.Block.sector_size;
      Alcotest.(check int) "capacity" (1024 * 1000)
        info.Storage.Block.capacity_sectors)

(* -- HDD -------------------------------------------------------------- *)

let hdd_write_read_roundtrip () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      Storage.Block.write dev ~lba:100 (data_of 'q' 4);
      Alcotest.(check string) "roundtrip" (data_of 'q' 4)
        (Storage.Block.read dev ~lba:100 ~sectors:4))

let hdd_write_durable_on_completion () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      Storage.Block.write dev ~lba:0 (data_of 'd' 1);
      Alcotest.(check string) "on media immediately" (data_of 'd' 1)
        (Storage.Block.durable_read dev ~lba:0 ~sectors:1))

let rotation_ns = Time.span_to_ns (Storage.Hdd.rotation_period small_hdd)

let hdd_first_write_within_one_rotation () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      let before = Sim.now sim in
      Storage.Block.write dev ~lba:0 (data_of 'a' 1);
      let took = Time.span_to_ns (Time.diff (Sim.now sim) before) in
      Alcotest.(check bool) "bounded by a rotation plus overheads" true
        (took < rotation_ns + 1_000_000))

let hdd_gapped_small_writes_cost_a_rotation_each () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      (* Mimic a synchronous log: write, think briefly, write the next
         sector. The platter has moved on, so each write waits for it to
         come around again. *)
      Storage.Block.write dev ~lba:0 (data_of 'a' 1);
      Process.sleep (Time.us 100);
      let before = Sim.now sim in
      Storage.Block.write dev ~lba:1 (data_of 'b' 1);
      let took = Time.span_to_ns (Time.diff (Sim.now sim) before) in
      Alcotest.(check bool)
        (Printf.sprintf "near-full rotation (%dns of %dns)" took rotation_ns)
        true
        (took > rotation_ns * 8 / 10 && took < rotation_ns * 11 / 10))

let hdd_large_chunks_amortise_rotation () =
  (* Without command queuing, every write pays at most one positioning
     rotation; a 512 KiB chunk amortises it over ~a full track, so
     chunked sequential writes reach a large fraction of the media rate
     while sector-sized writes reach ~1/1000 of it. This asymmetry is
     the drain-path speed the trusted logger relies on. *)
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      let chunk = 1000 in
      let before = Sim.now sim in
      for i = 0 to 9 do
        Storage.Block.write dev ~lba:(i * chunk) (data_of 'c' chunk)
      done;
      let took = Time.span_to_float_sec (Time.diff (Sim.now sim) before) in
      let media_rate =
        float_of_int (small_hdd.Storage.Hdd.sectors_per_track * sector)
        /. Time.span_to_float_sec (Storage.Hdd.rotation_period small_hdd)
      in
      let achieved = float_of_int (10 * chunk * sector) /. took in
      Alcotest.(check bool)
        (Printf.sprintf "achieved %.0f of %.0f B/s" achieved media_rate)
        true
        (achieved > 0.4 *. media_rate))

let hdd_seek_costs_more_for_distance () =
  let time_to_write lba =
    run_in_sim (fun sim ->
        let dev = make_hdd sim in
        (* Park the head at track 0 first. *)
        Storage.Block.write dev ~lba:0 (data_of 'a' 1);
        let before = Sim.now sim in
        Storage.Block.write dev ~lba (data_of 'b' 1);
        Time.span_to_ns (Time.diff (Sim.now sim) before))
  in
  (* Remove rotation noise by comparing average-free seek components:
     same angular target, different track distance. *)
  let near = time_to_write (1 * small_hdd.Storage.Hdd.sectors_per_track) in
  let far = time_to_write (1000 * small_hdd.Storage.Hdd.sectors_per_track) in
  Alcotest.(check bool)
    (Printf.sprintf "far seek slower (%d vs %d)" far near)
    true (far > near)

let hdd_serialises_requests () =
  with_sim (fun sim ->
      let dev = make_hdd sim in
      let completions = ref [] in
      let writer tag lba () =
        Storage.Block.write dev ~lba (data_of 'x' 1);
        completions := (tag, Sim.now sim) :: !completions
      in
      ignore (Process.spawn sim (writer "a" 0));
      ignore (Process.spawn sim (writer "b" 500));
      fun () ->
        match List.rev !completions with
        | [ ("a", ta); ("b", tb) ] ->
            Alcotest.(check bool) "second strictly later" true Time.(ta < tb)
        | _ -> Alcotest.fail "expected two completions in order")

let hdd_stats_counters () =
  run_in_sim (fun sim ->
      let dev = make_hdd sim in
      Storage.Block.write dev ~lba:0 (data_of 'a' 4);
      ignore (Storage.Block.read dev ~lba:0 ~sectors:2);
      Storage.Block.flush dev;
      let stats = Storage.Block.stats dev in
      Alcotest.(check int) "writes" 1 (Storage.Disk_stats.writes stats);
      Alcotest.(check int) "sectors written" 4
        (Storage.Disk_stats.sectors_written stats);
      Alcotest.(check int) "reads" 1 (Storage.Disk_stats.reads stats);
      Alcotest.(check int) "sectors read" 2 (Storage.Disk_stats.sectors_read stats);
      Alcotest.(check int) "flushes" 1 (Storage.Disk_stats.flushes stats);
      Alcotest.(check bool) "busy time accumulates" true
        (Time.compare_span (Storage.Disk_stats.busy stats) Time.zero_span > 0))

let hdd_power_cut_stops_persisting () =
  with_sim (fun sim ->
      let dev = make_hdd sim in
      ignore
        (Process.spawn sim (fun () ->
             Storage.Block.write dev ~lba:0 (data_of 'a' 1);
             Storage.Block.power_cut dev;
             Storage.Block.write dev ~lba:10 (data_of 'b' 1)));
      fun () ->
        Alcotest.(check string) "pre-cut write persisted" (data_of 'a' 1)
          (Storage.Block.durable_read dev ~lba:0 ~sectors:1);
        Alcotest.(check string) "post-cut write lost"
          (String.make sector '\000')
          (Storage.Block.durable_read dev ~lba:10 ~sectors:1))

let hdd_power_cut_tears_in_flight () =
  let sim = Sim.create ~seed:5L () in
  let dev = make_hdd sim in
  ignore
    (Process.spawn sim (fun () -> Storage.Block.write dev ~lba:0 (data_of 'a' 64)));
  (* Cut power mid-transfer: the 64-sector transfer runs from ~30us to
     ~560us, so 300us lands inside it. *)
  Sim.schedule_after sim (Time.us 300) (fun () -> Storage.Block.power_cut dev);
  Sim.run sim;
  let read = Storage.Block.durable_read dev ~lba:0 ~sectors:64 in
  let persisted = ref 0 in
  for i = 0 to 63 do
    if String.sub read (i * sector) sector = data_of 'a' 1 then incr persisted
  done;
  Alcotest.(check bool)
    (Printf.sprintf "partial persistence (%d/64)" !persisted)
    true
    (!persisted < 64)

let hdd_config_with_rpm () =
  let faster = Storage.Hdd.config_with_rpm small_hdd 15000 in
  Alcotest.(check bool) "shorter period" true
    (Time.compare_span
       (Storage.Hdd.rotation_period faster)
       (Storage.Hdd.rotation_period small_hdd)
    < 0)

(* -- SSD --------------------------------------------------------------- *)

let ssd_roundtrip () =
  run_in_sim (fun sim ->
      let dev = make_ssd sim in
      Storage.Block.write dev ~lba:64 (data_of 's' 8);
      Alcotest.(check string) "roundtrip" (data_of 's' 8)
        (Storage.Block.read dev ~lba:64 ~sectors:8))

let ssd_write_latency_page_granular () =
  let time_for sectors =
    run_in_sim (fun sim ->
        let dev = make_ssd sim in
        let before = Sim.now sim in
        Storage.Block.write dev ~lba:0 (data_of 'x' sectors);
        Time.span_to_ns (Time.diff (Sim.now sim) before))
  in
  let one_page = time_for 8 in
  let expected =
    Time.span_to_ns Storage.Ssd.default.Storage.Ssd.program_latency
    + Time.span_to_ns Storage.Ssd.default.Storage.Ssd.command_overhead
  in
  Alcotest.(check int) "one page = program + overhead" expected one_page;
  Alcotest.(check bool) "sub-page rounds up to a page" true (time_for 1 = one_page)

let ssd_much_faster_than_hdd_for_sync_writes () =
  let ssd_time =
    run_in_sim (fun sim ->
        let dev = make_ssd sim in
        let before = Sim.now sim in
        Storage.Block.write dev ~lba:0 (data_of 'x' 1);
        Time.span_to_ns (Time.diff (Sim.now sim) before))
  in
  Alcotest.(check bool) "well under a disk rotation" true
    (ssd_time * 10 < rotation_ns)

let ssd_channels_parallelise () =
  (* Two concurrent one-page writes should overlap on different channels. *)
  let elapsed_for concurrency =
    let sim = Sim.create () in
    let dev = make_ssd sim in
    let finished = ref Time.zero in
    for i = 0 to concurrency - 1 do
      ignore
        (Process.spawn sim (fun () ->
             Storage.Block.write dev ~lba:(i * 8) (data_of 'x' 8);
             finished := Time.max !finished (Sim.now sim)))
    done;
    Sim.run sim;
    Time.to_ns !finished
  in
  let one = elapsed_for 1 in
  let four = elapsed_for 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 concurrent ≈ 1 (%d vs %d)" four one)
    true
    (four < 2 * one)

let ssd_power_cut () =
  with_sim (fun sim ->
      let dev = make_ssd sim in
      ignore
        (Process.spawn sim (fun () ->
             Storage.Block.write dev ~lba:0 (data_of 'a' 8);
             Storage.Block.power_cut dev;
             Storage.Block.write dev ~lba:80 (data_of 'b' 8)));
      fun () ->
        Alcotest.(check string) "pre-cut persisted" (data_of 'a' 8)
          (Storage.Block.durable_read dev ~lba:0 ~sectors:8);
        Alcotest.(check string) "post-cut lost" (String.make (8 * sector) '\000')
          (Storage.Block.durable_read dev ~lba:80 ~sectors:8))

(* -- Write cache -------------------------------------------------------- *)

let wrap_cache sim dev = Storage.Write_cache.wrap sim Storage.Write_cache.default dev

let cache_acks_fast () =
  run_in_sim (fun sim ->
      let dev = wrap_cache sim (make_hdd sim) in
      let before = Sim.now sim in
      Storage.Block.write dev ~lba:0 (data_of 'c' 1);
      let took = Time.span_to_ns (Time.diff (Sim.now sim) before) in
      Alcotest.(check bool)
        (Printf.sprintf "cache ack ≪ rotation (%dns)" took)
        true
        (took * 100 < rotation_ns))

let cache_data_not_durable_until_destaged () =
  let sim = Sim.create () in
  let dev = wrap_cache sim (make_hdd sim) in
  let acked_at = ref None in
  ignore
    (Process.spawn sim (fun () ->
         Storage.Block.write dev ~lba:0 (data_of 'c' 1);
         acked_at := Some (Sim.now sim);
         (* At the moment of the ack, the data is only in volatile RAM. *)
         Alcotest.(check string) "not yet on media" (String.make sector '\000')
           (Storage.Block.durable_read dev ~lba:0 ~sectors:1)));
  Sim.run sim;
  Alcotest.(check bool) "write acked" true (!acked_at <> None);
  (* After the queue drains, the destager has persisted it. *)
  Alcotest.(check string) "eventually durable" (data_of 'c' 1)
    (Storage.Block.durable_read dev ~lba:0 ~sectors:1)

let cache_flush_makes_durable () =
  run_in_sim (fun sim ->
      let dev = wrap_cache sim (make_hdd sim) in
      Storage.Block.write dev ~lba:0 (data_of 'f' 1);
      Storage.Block.flush dev;
      Alcotest.(check string) "durable after flush" (data_of 'f' 1)
        (Storage.Block.durable_read dev ~lba:0 ~sectors:1))

let cache_fua_bypasses () =
  run_in_sim (fun sim ->
      let dev = wrap_cache sim (make_hdd sim) in
      Storage.Block.write dev ~fua:true ~lba:0 (data_of 'u' 1);
      Alcotest.(check string) "durable at completion" (data_of 'u' 1)
        (Storage.Block.durable_read dev ~lba:0 ~sectors:1))

let cache_read_sees_cached_data () =
  run_in_sim (fun sim ->
      let dev = wrap_cache sim (make_hdd sim) in
      Storage.Block.write dev ~lba:3 (data_of 'r' 1);
      (* Immediately read back: must come from the overlay even though the
         media still has zeros. *)
      Alcotest.(check string) "read-through overlay" (data_of 'r' 1)
        (Storage.Block.read dev ~lba:3 ~sectors:1))

let cache_power_cut_drops_contents () =
  let sim = Sim.create () in
  let dev = wrap_cache sim (make_hdd sim) in
  ignore
    (Process.spawn sim (fun () ->
         Storage.Block.write dev ~lba:0 (data_of 'l' 1);
         (* Cut power at the instant of the ack: cached data vanishes. *)
         Storage.Block.power_cut dev));
  Sim.run sim;
  Alcotest.(check string) "lost" (String.make sector '\000')
    (Storage.Block.durable_read dev ~lba:0 ~sectors:1)

let cache_capacity_backpressure () =
  let tiny =
    { Storage.Write_cache.capacity_bytes = 4 * sector; admit_bandwidth = 1e9 }
  in
  run_in_sim (fun sim ->
      let dev = Storage.Write_cache.wrap sim tiny (make_hdd sim) in
      let before = Sim.now sim in
      (* 16 sectors through a 4-sector cache must wait for destaging —
         i.e. take at least one rotational positioning. *)
      for i = 0 to 15 do
        Storage.Block.write dev ~lba:i (data_of 'b' 1)
      done;
      let took = Time.span_to_ns (Time.diff (Sim.now sim) before) in
      Alcotest.(check bool)
        (Printf.sprintf "backpressure engaged (%dns)" took)
        true
        (took > 1_000_000))

let cache_destager_coalesces () =
  let sim = Sim.create () in
  let raw = make_hdd sim in
  let dev = wrap_cache sim raw in
  ignore
    (Process.spawn sim (fun () ->
         (* Many small overlapping-tail writes, like a WAL. *)
         for i = 0 to 63 do
           Storage.Block.write dev ~lba:i (data_of 'w' 2)
         done;
         Storage.Block.flush dev));
  Sim.run sim;
  let writes = Storage.Disk_stats.writes (Storage.Block.stats raw) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer physical writes than cache entries (%d < 64)" writes)
    true (writes < 64);
  (* And the media contents equal in-order application of all writes. *)
  Alcotest.(check string) "contents correct" (data_of 'w' 65)
    (Storage.Block.durable_read dev ~lba:0 ~sectors:65)

let suites =
  [
    ( "storage.media",
      [
        case "unwritten sectors read as zeros" media_reads_zero;
        case "write/read roundtrip and extent" media_roundtrip;
        case "overwrite is sector granular" media_overwrite;
        case "overlay over a root image stays live" media_overlay_stays_live;
        media_torn_prefix_prop;
        media_overlay_model_prop;
      ] );
    ( "storage.block",
      [
        case "sectors_of_bytes" block_sectors_of_bytes;
        case "device info" block_info;
      ] );
    ( "storage.hdd",
      [
        case "write/read roundtrip" hdd_write_read_roundtrip;
        case "write durable on completion (no cache)" hdd_write_durable_on_completion;
        case "first write bounded by one rotation" hdd_first_write_within_one_rotation;
        case "gapped small writes cost a rotation each"
          hdd_gapped_small_writes_cost_a_rotation_each;
        case "large chunks amortise the rotation"
          hdd_large_chunks_amortise_rotation;
        case "longer seeks cost more" hdd_seek_costs_more_for_distance;
        case "single actuator serialises requests" hdd_serialises_requests;
        case "stats counters" hdd_stats_counters;
        case "power cut stops persisting" hdd_power_cut_stops_persisting;
        case "power cut tears in-flight write" hdd_power_cut_tears_in_flight;
        case "config_with_rpm scales the period" hdd_config_with_rpm;
      ] );
    ( "storage.ssd",
      [
        case "write/read roundtrip" ssd_roundtrip;
        case "page-granular write latency" ssd_write_latency_page_granular;
        case "sync writes far faster than disk" ssd_much_faster_than_hdd_for_sync_writes;
        case "channels service requests in parallel" ssd_channels_parallelise;
        case "power cut semantics" ssd_power_cut;
      ] );
    ( "storage.write_cache",
      [
        case "acks from cache RAM" cache_acks_fast;
        case "cached data not durable until destaged"
          cache_data_not_durable_until_destaged;
        case "flush forces durability" cache_flush_makes_durable;
        case "FUA bypasses the cache" cache_fua_bypasses;
        case "reads see cached data" cache_read_sees_cached_data;
        case "power cut drops cache contents" cache_power_cut_drops_contents;
        case "full cache applies backpressure" cache_capacity_backpressure;
        case "destager coalesces overlapping writes" cache_destager_coalesces;
      ] );
  ]

(* -- RAID-0 stripe (appended) -------------------------------------------------- *)

let make_stripe ?(members = 4) ?(chunk = 4) sim =
  let disks = Array.init members (fun _ -> make_ssd sim) in
  (Storage.Stripe.create sim ~chunk_sectors:chunk disks, disks)

let stripe_roundtrip_within_chunk () =
  run_in_sim (fun sim ->
      let vol, _ = make_stripe sim in
      Storage.Block.write vol ~lba:1 (data_of 's' 2);
      Alcotest.(check string) "roundtrip" (data_of 's' 2)
        (Storage.Block.read vol ~lba:1 ~sectors:2))

let stripe_roundtrip_across_members () =
  run_in_sim (fun sim ->
      let vol, _ = make_stripe sim in
      (* 16 sectors over 4-sector chunks spans all four members. *)
      let pattern =
        String.concat "" (List.init 16 (fun i -> String.make sector (Char.chr (65 + i))))
      in
      Storage.Block.write vol ~lba:2 pattern;
      Alcotest.(check string) "reassembled across members" pattern
        (Storage.Block.read vol ~lba:2 ~sectors:16))

let stripe_distributes_chunks () =
  run_in_sim (fun sim ->
      let vol, disks = make_stripe sim in
      Storage.Block.write vol ~lba:0 (data_of 'd' 16);
      Array.iter
        (fun disk ->
          Alcotest.(check int) "each member got one chunk" 4
            (Storage.Disk_stats.sectors_written (Storage.Block.stats disk)))
        disks)

let stripe_parallelises_large_writes () =
  (* 64 sectors = 8 flash pages: one SSD programs them in two channel
     rounds, four striped SSDs do one round each, concurrently. *)
  let timed f =
    run_in_sim (fun sim ->
        let before = Sim.now sim in
        f sim;
        Time.span_to_ns (Time.diff (Sim.now sim) before))
  in
  let striped =
    timed (fun sim ->
        let vol, _ = make_stripe ~chunk:16 sim in
        Storage.Block.write vol ~lba:0 (data_of 'p' 64))
  in
  let single =
    timed (fun sim ->
        let disk = make_ssd sim in
        Storage.Block.write disk ~lba:0 (data_of 'p' 64))
  in
  Alcotest.(check bool)
    (Printf.sprintf "striped faster (%dns < %dns)" striped single)
    true (striped < single)

let stripe_durable_read_and_extent () =
  run_in_sim (fun sim ->
      let vol, _ = make_stripe sim in
      Storage.Block.write vol ~lba:5 (data_of 'e' 10);
      Alcotest.(check string) "durable view reassembles" (data_of 'e' 10)
        (Storage.Block.durable_read vol ~lba:5 ~sectors:10);
      Alcotest.(check bool) "extent covers the write" true
        (Storage.Block.durable_extent vol >= 15))

let stripe_power_cut_propagates () =
  with_sim (fun sim ->
      let vol, disks = make_stripe sim in
      ignore
        (Process.spawn sim (fun () ->
             Storage.Block.write vol ~lba:0 (data_of 'a' 4);
             Storage.Block.power_cut vol;
             Storage.Block.write vol ~lba:100 (data_of 'b' 4)));
      fun () ->
        Alcotest.(check string) "pre-cut data persisted" (data_of 'a' 4)
          (Storage.Block.durable_read vol ~lba:0 ~sectors:4);
        Alcotest.(check string) "post-cut write lost"
          (String.make (4 * sector) '\000')
          (Storage.Block.durable_read vol ~lba:100 ~sectors:4);
        ignore disks)

(* [iter_global_ranges] inverts [plan]: mapping every planned segment
   back to the volume's address space must tile the request's sector
   range exactly — in order, no gap, no overlap, nothing outside it. *)
let stripe_plan_inverse_prop =
  prop "plan segments map back onto the request range" ~count:500
    QCheck2.Gen.(
      quad (int_range 1 6) (int_range 1 9) (int_range 0 200) (int_range 0 60))
    (fun (members, chunk_sectors, lba, sectors) ->
      let covered = ref [] in
      List.iter
        (fun seg ->
          Storage.Stripe.iter_global_ranges ~members ~chunk_sectors
            ~member:seg.Storage.Stripe.member ~lba:seg.Storage.Stripe.member_lba
            ~sectors:seg.Storage.Stripe.sectors (fun glba n ->
              covered := (glba, n) :: !covered))
        (Storage.Stripe.plan ~members ~chunk_sectors ~lba ~sectors);
      let next =
        List.fold_left
          (fun next (glba, n) -> if glba = next && n > 0 then next + n else -1)
          lba (List.rev !covered)
      in
      next = lba + sectors)

let stripe_suite =
  ( "storage.stripe",
    [
      stripe_plan_inverse_prop;
      case "roundtrip within a chunk" stripe_roundtrip_within_chunk;
      case "roundtrip across members" stripe_roundtrip_across_members;
      case "chunks distribute round-robin" stripe_distributes_chunks;
      case "large writes parallelise" stripe_parallelises_large_writes;
      case "durable read and extent" stripe_durable_read_and_extent;
      case "power cut reaches every member" stripe_power_cut_propagates;
    ] )

let suites = suites @ [ stripe_suite ]
