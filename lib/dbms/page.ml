type t = {
  id : int;
  values : string Desim.Int_table.t;
  mutable page_lsn : Lsn.t;
  mutable rec_lsn : Lsn.t option;
}

let magic = 0x50414745l
let header_size = 28

let create ~id =
  { id; values = Desim.Int_table.create 16; page_lsn = Lsn.zero; rec_lsn = None }

let keys_of_page ~keys_per_page id = (id * keys_per_page, (id + 1) * keys_per_page)
let page_of_key ~keys_per_page key = key / keys_per_page

let get t ~key = Desim.Int_table.find_opt t.values key

let set t ~key ~value ~lsn =
  Desim.Int_table.replace t.values key value;
  t.page_lsn <- Lsn.max t.page_lsn lsn

let is_dirty t = t.rec_lsn <> None

let serialize t ~page_bytes =
  let fits stop =
    if stop > page_bytes then invalid_arg "Page.serialize: contents exceed page size"
  in
  fits header_size;
  let image = Bytes.make page_bytes '\000' in
  (* Deterministic image: entries in key order, written in place. *)
  let keys =
    List.sort Int.compare (Desim.Int_table.fold (fun key _ acc -> key :: acc) t.values [])
  in
  let add_entry pos key =
    let value = Desim.Int_table.find t.values key in
    let len = String.length value in
    fits (pos + 12 + len);
    Bytes.set_int64_le image pos (Int64.of_int key);
    Bytes.set_int32_le image (pos + 8) (Int32.of_int len);
    Bytes.blit_string value 0 image (pos + 12) len;
    pos + 12 + len
  in
  let stop = List.fold_left add_entry header_size keys in
  Bytes.set_int32_le image 0 magic;
  Bytes.set_int64_le image 4 (Int64.of_int t.id);
  Bytes.set_int64_le image 12 (Int64.of_int (Lsn.to_int t.page_lsn));
  Bytes.set_int32_le image 20 (Int32.of_int (List.length keys));
  Bytes.set_int32_le image 24
    (Crc32.digest_bytes image ~pos:header_size ~len:(stop - header_size));
  Bytes.unsafe_to_string image

let image_lsn image ~id =
  if String.length image < header_size then -1
  else if String.get_int32_le image 0 <> magic then -1
  else begin
    let image_id = Int64.to_int (String.get_int64_le image 4) in
    let page_lsn = Int64.to_int (String.get_int64_le image 12) in
    let count = Int32.to_int (String.get_int32_le image 20) in
    if image_id <> id || image_id < 0 || page_lsn < 0 || count < 0 then -1
    else page_lsn
  end

let deserialize image =
  if String.length image < header_size then None
  else begin
    let id = Int64.to_int (String.get_int64_le image 4) in
    let page_lsn = image_lsn image ~id in
    if page_lsn < 0 then None
    else begin
      let count = Int32.to_int (String.get_int32_le image 20) in
      let crc = String.get_int32_le image 24 in
      let t = create ~id in
      t.page_lsn <- Lsn.of_int page_lsn;
      let rec read_entry pos remaining =
        if remaining = 0 then
          (* CRC covers exactly the entries region we just walked. *)
          if Crc32.digest image ~pos:header_size ~len:(pos - header_size) = crc
          then Some t
          else None
        else if pos + 12 > String.length image then None
        else begin
          let key = Int64.to_int (String.get_int64_le image pos) in
          let len = Int32.to_int (String.get_int32_le image (pos + 8)) in
          if len < 0 || pos + 12 + len > String.length image then None
          else begin
            Desim.Int_table.replace t.values key (String.sub image (pos + 12) len);
            read_entry (pos + 12 + len) (remaining - 1)
          end
        end
      in
      read_entry header_size count
    end
  end
