(* Append-only segment files.

   Layout:
     "ERSEG1\n"                                      file header (7 bytes)
     repeated records:
       0xE5                                          record magic
       kind        'S' | 'T' | 'D'                   1 byte
       length      payload bytes, uint32 LE          4 bytes
       crc32       over kind byte + payload, LE      4 bytes
       payload

   'S' carries the .erd schema header text, 'T' (upsert) a 32-hex key
   digest, '\n', and one tuple row in the exact-float .erd row syntax,
   'D' (delete) just the digest. The digest is MD5 of the tuple's
   provenance key string (Erm.Lineage.key_string) — the same value
   identity .why resolves. *)

let header = "ERSEG1\n"
let record_magic = '\xE5'
let overhead = 10 (* magic + kind + length + crc *)

type record =
  | Schema_rec of string
  | Upsert of { digest : string; row : string }
  | Delete of { digest : string }

type tail = Clean | Torn of int | Bad_magic_at of int | Bad_crc_at of int

let digest_of_tuple t = Digest.to_hex (Digest.string (Erm.Lineage.key_string t))

let kind_of = function
  | Schema_rec _ -> 'S'
  | Upsert _ -> 'T'
  | Delete _ -> 'D'

(* A record's payload in the pieces it is written from, so that neither
   the framing nor the checksum copies a row. *)
let payload_parts = function
  | Schema_rec text -> [ text ]
  | Upsert { digest; row } -> [ digest; "\n"; row ]
  | Delete { digest } -> [ digest ]

(* The CRC covers the kind byte, then the payload. *)
let kind_crc kind = Crc32.digest (String.make 1 kind)

let encode_into buf r =
  let kind = kind_of r and parts = payload_parts r in
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts
  and crc =
    List.fold_left
      (fun c p -> Crc32.update c p ~pos:0 ~len:(String.length p))
      (kind_crc kind) parts
  in
  Buffer.add_char buf record_magic;
  Buffer.add_char buf kind;
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 crc;
  Buffer.add_bytes buf b;
  List.iter (Buffer.add_string buf) parts

let encode_file records =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  List.iter (encode_into buf) records;
  Buffer.contents buf

let decode_payload kind payload =
  match kind with
  | 'S' -> Some (Schema_rec payload)
  | 'T' -> (
      match String.index_opt payload '\n' with
      | Some i when i = 32 ->
          Some
            (Upsert
               {
                 digest = String.sub payload 0 i;
                 row =
                   String.sub payload (i + 1) (String.length payload - i - 1);
               })
      | Some _ | None -> None)
  | 'D' -> if String.length payload = 32 then Some (Delete { digest = payload }) else None
  | _ -> None

let scan ?(verify = true) content =
  let len = String.length content in
  let hlen = String.length header in
  if len < hlen then
    if String.sub content 0 len = String.sub header 0 len then ([], 0, Torn 0)
    else ([], 0, Bad_magic_at 0)
  else if String.sub content 0 hlen <> header then ([], 0, Bad_magic_at 0)
  else begin
    let records = ref [] in
    let rec go off =
      if off = len then (List.rev !records, off, Clean)
      else if len - off < overhead then (List.rev !records, off, Torn off)
      else if content.[off] <> record_magic then
        (List.rev !records, off, Bad_magic_at off)
      else begin
        let kind = content.[off + 1] in
        let plen = Int32.to_int (String.get_int32_le content (off + 2)) in
        if plen < 0 then (List.rev !records, off, Bad_magic_at off)
        else if off + overhead + plen > len then
          (List.rev !records, off, Torn off)
        else begin
          let crc = String.get_int32_le content (off + 6) in
          if
            verify
            && not
                 (Int32.equal crc
                    (Crc32.update (kind_crc kind) content
                       ~pos:(off + overhead) ~len:plen))
          then (List.rev !records, off, Bad_crc_at off)
          else
            match
              decode_payload kind (String.sub content (off + overhead) plen)
            with
            | None -> (List.rev !records, off, Bad_magic_at off)
            | Some r ->
                records := r :: !records;
                go (off + overhead + plen)
        end
      end
    in
    go hlen
  end
