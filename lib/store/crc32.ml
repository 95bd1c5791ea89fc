(* CRC-32 (IEEE 802.3 polynomial, reflected), the checksum framing every
   segment record carries. Pure OCaml — the store must not pull in
   external dependencies for 40 lines of arithmetic.

   Slicing-by-8: [table] holds eight 256-entry tables, where entry n of
   table k is the CRC of byte n followed by k zero bytes. Each step reads
   8 bytes as two little-endian 32-bit words and folds them through all
   eight tables at once; the tail runs byte at a time through table 0.
   The running CRC is a native int below 2^32, so the loop boxes
   nothing. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xFF)
    done
  done;
  t

let[@inline] at k n = Array.unsafe_get table ((k lsl 8) lor (n land 0xFF))
let[@inline] word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let c = ref (Int32.to_int crc land 0xFFFF_FFFF lxor 0xFFFF_FFFF)
  and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = word s !i lxor !c and hi = word s (!i + 4) in
    c :=
      at 7 lo
      lxor at 6 (lo lsr 8)
      lxor at 5 (lo lsr 16)
      lxor at 4 (lo lsr 24)
      lxor at 3 hi
      lxor at 2 (hi lsr 8)
      lxor at 1 (hi lsr 16)
      lxor at 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := at 0 (!c lxor Char.code (String.unsafe_get s j)) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFF_FFFF)

let digest s = update 0l s ~pos:0 ~len:(String.length s)
let to_hex c = Printf.sprintf "%08lx" c

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v when Int64.unsigned_compare v 0xFFFFFFFFL <= 0 ->
        Some (Int64.to_int32 v)
    | Some _ | None -> None
