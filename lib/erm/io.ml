exception Io_error of { line : int; col : int; message : string }

type error_kind =
  | Declaration | Domain | Arity | Definite
  | Evidence | Membership | Key | Schema

type error = { kind : error_kind; line : int; col : int; message : string }
type 'a parsed = ('a, error) result

let err kind ?(col = 0) line fmt =
  Format.kasprintf (fun message -> { kind; line; col; message }) fmt

let error kind ?(col = 0) line fmt =
  Format.kasprintf (fun message -> Error { kind; line; col; message }) fmt

let raise_error (e : error) =
  raise (Io_error { line = e.line; col = e.col; message = e.message })

let fail ?(col = 0) line fmt =
  Format.kasprintf (fun message -> raise (Io_error { line; col; message })) fmt

(* Number of blanks (spaces and tabs) that open [s.[i] .. s.[stop-1]]. *)
let blanks s i stop =
  let blank c = c = ' ' || c = '\t' in
  let rec go j = if j < stop && blank s.[j] then go (j + 1) else j in
  go i - i

let lead s = blanks s 0 (String.length s)

(* The bounds of [s.[i] .. s.[stop-1]] without the leading and trailing
   whitespace that [String.trim] removes. *)
let trim_bounds s i stop =
  let space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t' in
  let rec first i = if i < stop && space s.[i] then first (i + 1) else i in
  let i = first i in
  let rec last j = if j > i && space s.[j - 1] then last (j - 1) else j in
  (i, last stop)

(* The first [sep] in [s.[i] .. s.[stop-1]] outside a double-quoted
   literal, or [stop]. A backslash inside a literal escapes the next
   character; an unterminated literal runs to [stop]. Top-level, so a
   row's scan allocates nothing. *)
let rec next_sep sep s i stop =
  if i >= stop then stop
  else if s.[i] = sep then i
  else if s.[i] = '"' then next_sep sep s (after_quote s (i + 1) stop) stop
  else next_sep sep s (i + 1) stop

and after_quote s i stop =
  if i >= stop then stop
  else if s.[i] = '\\' then after_quote s (i + 2) stop
  else if s.[i] = '"' then i + 1
  else after_quote s (i + 1) stop

(* [got] plus the number of [sep]s in [s.[i] .. s.[stop-1]] outside
   quoted literals. *)
let rec count_seps sep s i stop got =
  let j = next_sep sep s i stop in
  if j >= stop then got else count_seps sep s (j + 1) stop (got + 1)

(* The trimmed, non-empty pieces of [s.[i] .. s.[stop-1]] between the
   [sep]s outside quoted literals. *)
let rec split_outside_quotes sep s i stop =
  let j = next_sep sep s i stop in
  let piece = String.trim (String.sub s i (j - i)) in
  let rest = if j >= stop then [] else split_outside_quotes sep s (j + 1) stop in
  if piece = "" then rest else piece :: rest

let string_mentions haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n > 0 && go 0

type decl = {
  line : int; col : int; key : bool; name : string; attr : Attr.t parsed }

(* "name : string" or "name : evidence {a, b, c}". [col] is the 1-based
   column of the declaration body in its source line. *)
let parse_attr_decl ~col ~key line body =
  let decl name attr = { line; col; key; name; attr } in
  match String.index_opt body ':' with
  | None ->
      decl ""
        (error Declaration ~col line
           "expected `name : kind` in attribute declaration")
  | Some i ->
      let name = String.trim (String.sub body 0 i) in
      let kind_raw = String.sub body (i + 1) (String.length body - i - 1) in
      let kcol = if col = 0 then 0 else col + i + 1 + lead kind_raw in
      let kind = String.trim kind_raw in
      if name = "" then
        decl "" (error Declaration ~col line "empty attribute name")
      else if String.length kind >= 8 && String.sub kind 0 8 = "evidence" then
        let spec = String.trim (String.sub kind 8 (String.length kind - 8)) in
        let n = String.length spec in
        if n < 2 || spec.[0] <> '{' || spec.[n - 1] <> '}' then
          decl name
            (error Declaration ~col:kcol line "expected evidence {v1, v2, …}")
        else
          let values = split_outside_quotes ',' spec 1 (n - 1) in
          decl name
            (match List.map Dst.Value.of_literal values with
            | [] -> error Domain ~col:kcol line "empty evidence domain"
            | vs -> Ok (Attr.evidential name (Dst.Domain.of_values name vs))
            | exception Invalid_argument _ ->
                error Domain ~col:kcol line "malformed domain value in %s" spec)
      else
        decl name
          (match Attr.definite name kind with
          | a -> Ok a
          | exception Invalid_argument _ ->
              error Domain ~col:kcol line "unknown attribute kind %s" kind)

let parse_definite ~col line kind raw =
  let raw = String.trim raw in
  match kind with
  | "string" ->
      if String.length raw >= 2 && raw.[0] = '"' then
        match Dst.Value.of_literal raw with
        | v -> Ok v
        | exception Invalid_argument m -> error Definite ~col line "%s" m
      else Ok (Dst.Value.string raw)
  | "int" -> (
      match int_of_string_opt raw with
      | Some n -> Ok (Dst.Value.int n)
      | None -> error Definite ~col line "expected an int, got %s" raw)
  | "float" -> (
      match float_of_string_opt raw with
      | Some f -> Ok (Dst.Value.float f)
      | None -> error Definite ~col line "expected a float, got %s" raw)
  | "bool" -> (
      match bool_of_string_opt raw with
      | Some b -> Ok (Dst.Value.bool b)
      | None -> error Definite ~col line "expected a bool, got %s" raw)
  | _ -> error Definite ~col line "unknown value kind %s" kind

type cell =
  | Value of Dst.Value.t
  | Evidence of {
      col : int; frame : Dst.Domain.t;
      entries : Dst.Evidence.entry list; mass : Dst.Evidence.t parsed }

let bad_evidence ~col line attr m =
  error Evidence ~col line "bad evidence for %s: %s" (Attr.name attr) m

(* A cell under a declaration that failed carries that declaration's
   error. *)
let parse_cell ~col line attr raw =
  match attr with
  | Error e -> Error e
  | Ok attr -> (
      match Attr.kind attr with
      | Attr.Definite kind -> (
          match parse_definite ~col line kind raw with
          | Ok v -> Ok (Value v)
          | Error e -> Error e)
      | Attr.Evidential frame -> (
          match Dst.Evidence.parse frame (String.trim raw) with
          | Error m -> bad_evidence ~col line attr m
          | Ok entries ->
              let mass =
                match Dst.Evidence.of_entries frame entries with
                | e -> Ok e
                | exception
                    ( Dst.Evidence.Parse_error (_, m)
                    | Dst.Mass.F.Invalid_mass m ) ->
                    bad_evidence ~col line attr m
              in
              Ok (Evidence { col; frame; entries; mass })))

type membership = {
  col : int; sn : float; sp : float; support : Dst.Support.t parsed }

let bad_membership ~col line raw =
  error Membership ~col line "bad membership pair %s" raw

let parse_membership ~col line raw =
  match Dst.Support.pair_of_string raw with
  | None -> bad_membership ~col line raw
  | Some (sn, sp) -> (
      match Dst.Support.make ~sn ~sp with
      | s -> Ok { col; sn; sp; support = Ok s }
      | exception Dst.Support.Invalid_support _ ->
          Ok { col; sn; sp; support = bad_membership ~col line raw })

type row = {
  line : int; col : int;
  key : Dst.Value.t parsed list; cells : cell parsed list;
  tm : membership parsed }

(* Parses the row body [s.[first] .. s.[stop-1]] against the declared
   [keys] and [attrs]. [base_col] is the 1-based column of [s.[first]]
   in its source line (0 when unknown), so each field's own column
   follows from the positions of the '|' separators. *)
let parse_row ~base_col line ~keys ~attrs s first stop =
  let expected = List.length keys + List.length attrs + 1 in
  let got = count_seps '|' s first stop 1 in
  if got <> expected then
    error Arity ~col:base_col line "expected %d |-separated fields, got %d"
      expected got
  else
    let pos = ref first in
    (* The next field's column and trimmed text. *)
    let field () =
      let a = !pos in
      let b = next_sep '|' s a stop in
      pos := b + 1;
      let col =
        if base_col = 0 then 0 else base_col + (a - first) + blanks s a b
      in
      let i, j = trim_bounds s a b in
      (col, String.sub s i (j - i))
    in
    (* A fold, not List.map, so fields are consumed left to right. *)
    let fields attrs parse =
      List.rev
        (List.fold_left
           (fun acc attr ->
             let col, raw = field () in
             parse ~col attr raw :: acc)
           [] attrs)
    in
    let key =
      fields keys (fun ~col attr raw ->
          match attr with
          | Error e -> Error e
          | Ok attr -> (
              match Attr.kind attr with
              | Attr.Definite kind -> parse_definite ~col line kind raw
              | Attr.Evidential _ ->
                  error Key ~col line "evidential key attribute"))
    in
    let cells = fields attrs (fun ~col -> parse_cell ~col line) in
    let tm =
      let col, raw = field () in
      parse_membership ~col line raw
    in
    Ok { line; col = base_col; key; cells; tm }

let get = function Ok v -> v | Error e -> raise_error e

(* The row's tuple. @raise Io_error at the first error among its
   fields, left to right. *)
let tuple_of_row schema (r : row) =
  let cell c =
    match get c with
    | Value v -> Etuple.Definite v
    | Evidence { mass; _ } -> Etuple.Evidence (get mass)
  in
  let key = List.map get r.key in
  let cells = List.map cell r.cells in
  try Etuple.make schema ~key ~cells ~tm:(get (get r.tm).support)
  with Etuple.Tuple_error m -> fail ~col:r.col r.line "%s" m

(* The row parsed against a known schema, as a tuple. *)
let tuple_of_fields schema ~base_col line s first stop =
  let layout = List.map Result.ok in
  tuple_of_row schema
    (get
       (parse_row ~base_col line
          ~keys:(layout (Schema.key schema))
          ~attrs:(layout (Schema.nonkey schema))
          s first stop))

type item =
  | Header of { line : int; col : int; name : string }
  | Decl of decl
  | Directive_error of error
  | Block of { line : int; name : string; schema : Schema.t parsed }
  | Row of row parsed

type block = {
  rname : string;
  rline : int;
  (* Newest first; reversed once when the block is built. Only named
     declarations hold a column. *)
  mutable keys : Attr.t parsed list;
  mutable attrs : Attr.t parsed list;
  mutable failed : error option;  (* the block's first declaration error *)
  mutable rows : (int * int * int * int) list;  (* line, column, body bounds *)
}

(* One pass over the lines, by index: directives are checked and
   declarations parsed as they come, tuple rows are kept as bounds into
   [input] and parsed once their block's schema is known. [lines] holds
   the number of the line read last. *)
let scan_lines lines input f init =
  let acc = ref init in
  let emit item = acc := f !acc item in
  let n = String.length input in
  let blocks = ref [] in
  let current = ref None in
  let flush () =
    Option.iter (fun b -> blocks := b :: !blocks) !current;
    current := None
  in
  let directive lineno start stop =
    let indent = blanks input start stop in
    let ls, le = trim_bounds input start stop in
    if ls < le && input.[ls] <> '#' then begin
      let rec to_space k =
        if k < le && input.[k] <> ' ' then to_space (k + 1) else k
      in
      let word_end = to_space ls in
      let word_len = word_end - ls in
      let bs, be = trim_bounds input word_end le in
      (* 1-based column of the body's first character in the raw line. *)
      let body_col = indent + word_len + blanks input word_end le + 1 in
      let body () = String.sub input bs (be - bs) in
      let bad fmt = err Declaration ~col:(indent + 1) lineno fmt in
      match String.sub input ls word_len with
      | "relation" ->
          flush ();
          if bs = be then emit (Directive_error (bad "relation needs a name"))
          else begin
            let name = body () in
            current :=
              Some { rname = name; rline = lineno; keys = []; attrs = [];
                     failed = None; rows = [] };
            emit (Header { line = lineno; col = body_col; name })
          end
      | word -> (
          match (!current, word) with
          | None, _ ->
              emit (Directive_error (bad "expected `relation <name>` first"))
          | Some b, ("key" | "attr") ->
              let d =
                parse_attr_decl ~col:body_col ~key:(word = "key") lineno
                  (body ())
              in
              (match d.attr with
              | Error e when b.failed = None -> b.failed <- Some e
              | _ -> ());
              if d.name <> "" then
                if d.key then b.keys <- d.attr :: b.keys
                else b.attrs <- d.attr :: b.attrs;
              emit (Decl d)
          | Some b, "tuple" -> b.rows <- (lineno, body_col, bs, be) :: b.rows
          | Some _, other ->
              emit (Directive_error (bad "unknown directive %s" other)))
    end
  in
  let rec read lineno start =
    let stop =
      Option.value (String.index_from_opt input start '\n') ~default:n
    in
    lines := lineno;
    directive lineno start stop;
    if stop < n then read (lineno + 1) (stop + 1)
  in
  read 1 0;
  flush ();
  (* Blocks newest first: the loader reports a later block's error
     before an earlier block's. *)
  List.iter
    (fun b ->
      let keys = List.rev b.keys and attrs = List.rev b.attrs in
      let schema =
        match b.failed with
        | Some e -> Error e
        | None -> (
            match
              Schema.make ~name:b.rname
                ~key:(List.map Result.get_ok keys)
                ~nonkey:(List.map Result.get_ok attrs)
            with
            | s -> Ok s
            | exception Schema.Schema_error m ->
                error Schema b.rline "relation %s: %s" b.rname m)
      in
      emit (Block { line = b.rline; name = b.rname; schema });
      List.iter
        (fun (lineno, col, first, stop) ->
          emit
            (Row (parse_row ~base_col:col lineno ~keys ~attrs input first stop)))
        (List.rev b.rows))
    !blocks;
  !acc

let add_row r (row : row) =
  let tuple = tuple_of_row (Relation.schema r) row in
  try Relation.add r tuple
  with
  | Relation.Duplicate_key _ -> fail ~col:row.col row.line "duplicate key"
  | Relation.Relation_error m -> fail ~col:row.col row.line "%s" m

let scan input f init = scan_lines (ref 0) input f init

(* The scan delivers blocks last to first, so consing gives file
   order. io.parse.lines counts the lines the scan read: all of them
   (newlines + 1) unless a directive or declaration fails first. *)
let relations_of_string input =
  let lines = ref 0 in
  let load () =
    scan_lines lines input
      (fun rels item ->
        match item with
        | Header _ | Decl { attr = Ok _; _ } -> rels
        | Directive_error e
        | Decl { attr = Error e; _ }
        | Block { schema = Error e; _ }
        | Row (Error e) ->
            raise_error e
        | Block { schema = Ok s; _ } -> Relation.empty s :: rels
        | Row (Ok row) -> (
            match rels with r :: rest -> add_row r row :: rest | [] -> rels))
      []
  in
  Fun.protect load ~finally:(fun () ->
      Obs.Metrics.incr ~by:!lines "io.parse.lines")

let relation_of_string input =
  match relations_of_string input with
  | [ r ] -> r
  | l -> fail 0 "expected exactly one relation, found %d" (List.length l)

(* Serialization writes each row into one Buffer, without Format: a
   Format break hint wraps a long focal set at the 78-column margin, and
   a row must stay on one line.

   Masses print losslessly but readably: the shortest of
   %.15g/%.16g/%.17g that parses back to the same double (%.17g is always
   exact; most masses round-trip at 15 digits already). [add_float]
   computes those bytes in one pass of integer arithmetic instead of
   formatting and re-parsing. Ryū (Adams, PLDI 2018) scales the double
   x = v·2^e2 to a decimal integer floor (v·2^e2 / 10^e10) of 18 or 19
   digits, for v the significand and for the two ends of x's rounding
   interval, with one 64×128-bit product each. Divisibility of v by
   2^q or 5^q says whether each floor was exact. Rounding that integer
   half-to-even to 15, 16 and 17 digits gives what %.Pg prints, and a
   candidate round-trips exactly when it lies inside the interval,
   whose ends belong to it only for an even significand (the reader
   rounds ties to even). *)

(* Non-negative integers as little-endian 32-bit limbs, only as large as
   the tables below and subnormal scaling need. *)
module Big = struct
  let mask = 0xFFFF_FFFF
  let limb a k = if k >= 0 && k < Array.length a then a.(k) else 0

  let trim a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let of_int v = trim [| v land mask; v lsr 32 |]
  let pow2 n =
    Array.init ((n / 32) + 1) (fun k -> if k = n / 32 then 1 lsl (n mod 32) else 0)

  (* c < 2^30, so a limb product and its carry stay below 2^62. *)
  let mul_small a c =
    let r = Array.make (Array.length a + 1) 0 and carry = ref 0 in
    Array.iteri
      (fun k x ->
        let p = (x * c) + !carry in
        r.(k) <- p land mask;
        carry := p lsr 32)
      a;
    r.(Array.length a) <- !carry;
    trim r

  let div_small a c =
    let q = Array.make (Array.length a) 0 and rem = ref 0 in
    for k = Array.length a - 1 downto 0 do
      let x = (!rem lsl 32) lor a.(k) in
      q.(k) <- x / c;
      rem := x mod c
    done;
    trim q

  (* Bits [off, off + 32) of a, off possibly negative: floor (a / 2^off)
     mod 2^32. *)
  let bits a off =
    let k = off asr 5 and o = off land 31 in
    ((limb a k lsr o) lor (limb a (k + 1) lsl (32 - o))) land mask

  (* a mod 2^n = 0 *)
  let low_zero a n =
    let rec go k =
      if (k + 1) * 32 <= n then limb a k = 0 && go (k + 1)
      else limb a k land ((1 lsl (n - (k * 32))) - 1) = 0
    in
    go 0
end

(* Ryū's bit-length and logarithm estimates, exact over double range. *)
let pow5bits e = ((e * 1217359) lsr 19) + 1
let log10_pow2 e = (e * 78913) lsr 18
let log10_pow5 e = (e * 732923) lsr 20

(* Ryū's tables as four 32-bit limbs per entry: [pow5] holds 5^i cut to
   its top 125 bits, [pow5_inv] holds floor (2^(pow5bits q + 124) / 5^q)
   + 1. Their sizes are the largest indices the two branches of
   [add_normal] reach, at the largest and smallest binary exponents. *)
let pow5_count = 1076 - (log10_pow5 1076 - 1) + 1
let pow5_inv_count = log10_pow2 (2046 - 1077)

let pow5, pow5_inv =
  let pow5 = Array.make (4 * pow5_count) 0
  and inv = Array.make (4 * pow5_inv_count) 0 in
  let j_max = pow5bits (pow5_inv_count - 1) + 124 in
  (* p = 5^i and r = floor (2^j_max / 5^i), by nested floors. *)
  let p = ref (Big.of_int 1) and r = ref (Big.pow2 j_max) in
  for i = 0 to max pow5_count pow5_inv_count - 1 do
    let bits = pow5bits i in
    if i < pow5_count then
      for k = 0 to 3 do
        pow5.((4 * i) + k) <- Big.bits !p (bits - 125 + (32 * k))
      done;
    if i < pow5_inv_count then begin
      let off = j_max - (bits + 124) and carry = ref 1 in
      for k = 0 to 3 do
        let w = Big.bits !r (off + (32 * k)) + !carry in
        inv.((4 * i) + k) <- w land Big.mask;
        carry := w lsr 32
      done;
      r := Big.div_small !r 5
    end;
    p := Big.mul_small !p 5
  done;
  (pow5, inv)

let[@inline] lo32 x = Int64.to_int (Int64.logand x 0xFFFF_FFFFL)
let[@inline] hi32 x = Int64.to_int (Int64.shift_right_logical x 32)

(* a·b + c over unsigned 64 bits, for a, b < 2^32 and c < 2^33: the sum
   stays below 2^64. *)
let[@inline] mac a b c =
  Int64.add (Int64.mul (Int64.of_int a) (Int64.of_int b)) (Int64.of_int c)

(* floor (v · t / 2^j) for v < 2^56, t the 128-bit table entry [e],
   and 64 <= j < 128 with a result below 2^62. The 192-bit product is
   built in 32-bit limbs from 32-bit halves of v and t; its lowest limb
   only carries. *)
let mul_shift v table e j =
  let t0 = table.(4 * e) and t1 = table.((4 * e) + 1)
  and t2 = table.((4 * e) + 2) and t3 = table.((4 * e) + 3) in
  let v0 = v land Big.mask and v1 = v lsr 32 in
  let x = mac v0 t1 (hi32 (mac v0 t0 0)) in
  let p1 = lo32 x in
  let x = mac v0 t2 (hi32 x) in
  let p2 = lo32 x in
  let x = mac v0 t3 (hi32 x) in
  let p3 = lo32 x and p4 = hi32 x in
  let x = mac v1 t0 p1 in
  let x = mac v1 t1 (p2 + hi32 x) in
  let p2 = lo32 x in
  let x = mac v1 t2 (p3 + hi32 x) in
  let p3 = lo32 x in
  let x = mac v1 t3 (p4 + hi32 x) in
  let p4 = lo32 x and p5 = hi32 x in
  let o = j land 31 in
  if j < 96 then
    if o = 0 then p2 lor (p3 lsl 32)
    else (p2 lsr o) lor (p3 lsl (32 - o)) lor (p4 lsl (64 - o))
  else if o = 0 then p3 lor (p4 lsl 32)
  else (p3 lsr o) lor (p4 lsl (32 - o)) lor (p5 lsl (64 - o))

let rec multiple_of_pow5 v q =
  q <= 0 || (v mod 5 = 0 && multiple_of_pow5 (v / 5) (q - 1))

let multiple_of_pow2 v q = q < 62 && v land ((1 lsl q) - 1) = 0

(* What %.Pg prints for d · 10^(x - P + 1), where d has P digits: the
   %e layout when x < -4 or x >= P, else %f, trailing zeros dropped in
   both. *)
let emit buf d p x =
  let d = ref d and len = ref p in
  while !d mod 10 = 0 do
    d := !d / 10;
    decr len
  done;
  let len = !len and s = Bytes.create !len in
  for k = len - 1 downto 0 do
    Bytes.unsafe_set s k (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  if x < -4 || x >= p then begin
    Buffer.add_char buf (Bytes.get s 0);
    if len > 1 then begin
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf s 1 (len - 1)
    end;
    Buffer.add_char buf 'e';
    Buffer.add_char buf (if x < 0 then '-' else '+');
    let a = abs x in
    if a >= 100 then Buffer.add_char buf (Char.chr (48 + (a / 100)));
    Buffer.add_char buf (Char.chr (48 + (a / 10 mod 10)));
    Buffer.add_char buf (Char.chr (48 + (a mod 10)))
  end
  else if x < 0 then begin
    Buffer.add_string buf "0.";
    for _ = 2 to -x do Buffer.add_char buf '0' done;
    Buffer.add_subbytes buf s 0 len
  end
  else if len <= x + 1 then begin
    Buffer.add_subbytes buf s 0 len;
    for _ = len to x do Buffer.add_char buf '0' done
  end
  else begin
    Buffer.add_subbytes buf s 0 (x + 1);
    Buffer.add_char buf '.';
    Buffer.add_subbytes buf s (x + 1) (len - x - 1)
  end

let pow10 =
  let a = Array.make 19 1 in
  for k = 1 to 18 do a.(k) <- 10 * a.(k - 1) done;
  a

(* Round-half-even of vr / unit from its floor d, where vr is the exact
   floor when [exact] and anything above it otherwise. *)
let round vr exact unit d =
  let r = vr - (d * unit) and half = unit lsr 1 in
  if r > half || (r = half && ((not exact) || d land 1 = 1)) then d + 1
  else d

(* Whether the decimal c (in the units of vr) lies in x's rounding
   interval, whose ends have floors vm and vp. *)
let inside c ~vp ~vp_exact ~vm ~vm_exact ~accept =
  (c < vp || (c = vp && (accept || not vp_exact)))
  && (c > vm || (c = vm && accept && vm_exact))

(* d has p digits, or p + 1 when rounding carried. *)
let emit_rounded buf d p x =
  if d = pow10.(p) then emit buf (d / 10) p (x + 1) else emit buf d p x

(* vr, vp and vm are floor (v / 10^e10) for x, the upper and the lower
   end of its rounding interval; [*_exact] says the floor dropped
   nothing. *)
let rec add_digits buf ~vr ~vr_exact ~vp ~vp_exact ~vm ~vm_exact ~accept e10
    =
  if vr < pow10.(17) then
    (* Only an exact scaling (q = 0) comes out short of 18 digits. *)
    add_digits buf ~vr:(10 * vr) ~vr_exact ~vp:(10 * vp) ~vp_exact
      ~vm:(10 * vm) ~vm_exact ~accept (e10 - 1)
  else
    (* u17 units of vr make one unit of the 17th digit; x is the decimal
       exponent of the leading digit. *)
    let wide = vr >= pow10.(18) in
    let u17 = if wide then 100 else 10 in
    let d17 = if wide then vr / 100 else vr / 10 in
    let x = e10 + if wide then 18 else 17 in
    let d15 = round vr vr_exact (100 * u17) (d17 / 100) in
    if inside (d15 * 100 * u17) ~vp ~vp_exact ~vm ~vm_exact ~accept then
      emit_rounded buf d15 15 x
    else
      let d16 = round vr vr_exact (10 * u17) (d17 / 10) in
      if inside (d16 * 10 * u17) ~vp ~vp_exact ~vm ~vm_exact ~accept then
        emit_rounded buf d16 16 x
      else emit_rounded buf (round vr vr_exact u17 d17) 17 x

(* x = v · 2^e2 with v = 4·m2 (two spare bits for the interval ends
   v + 2 and v - 1 - mm_shift), scaled as in Ryū's d2d. *)
let add_normal buf ieee_exp mant =
  let m2 = (1 lsl 52) lor mant and e2 = ieee_exp - 1077 in
  let mv = 4 * m2 in
  let mp = mv + 2
  and mm = mv - 1 - if mant <> 0 || ieee_exp <= 1 then 1 else 0 in
  let accept = m2 land 1 = 0 in
  if e2 >= 0 then
    let q = log10_pow2 e2 - if e2 > 3 then 1 else 0 in
    let j = q + pow5bits q + 124 - e2 in
    add_digits buf
      ~vr:(mul_shift mv pow5_inv q j) ~vr_exact:(multiple_of_pow5 mv q)
      ~vp:(mul_shift mp pow5_inv q j) ~vp_exact:(multiple_of_pow5 mp q)
      ~vm:(mul_shift mm pow5_inv q j) ~vm_exact:(multiple_of_pow5 mm q)
      ~accept q
  else
    let q = log10_pow5 (-e2) - if -e2 > 1 then 1 else 0 in
    let i = -e2 - q in
    let j = q - pow5bits i + 125 in
    add_digits buf
      ~vr:(mul_shift mv pow5 i j) ~vr_exact:(multiple_of_pow2 mv q)
      ~vp:(mul_shift mp pow5 i j) ~vp_exact:(multiple_of_pow2 mp q)
      ~vm:(mul_shift mm pow5 i j) ~vm_exact:(multiple_of_pow2 mm q)
      ~accept (q + e2)

(* A subnormal x = v · 2^-1076 scales by bignum to 18 digits, floor (v ·
   5^t / 2^(1076 - t)) for t = -e10: Ryū's scale leaves too few digits
   for 17-digit rounding. The estimate of t is off by at most one, so
   the floor stays below 2^64; from 2^60 up it comes back as max_int. *)
let scaled v t =
  let rec pow5 b t =
    if t >= 12 then pow5 (Big.mul_small b 244140625) (t - 12)
    else if t > 0 then pow5 (Big.mul_small b 5) (t - 1)
    else b
  in
  let b = pow5 (Big.of_int v) t and sh = 1076 - t in
  let hi = Big.bits b (sh + 32) in
  if hi >= 1 lsl 28 then (max_int, false)
  else ((hi lsl 32) lor Big.bits b sh, Big.low_zero b sh)

let rec add_subnormal buf mant t =
  let mv = 4 * mant in
  let vr, vr_exact = scaled mv t in
  if vr < pow10.(17) then add_subnormal buf mant (t + 1)
  else if vr >= pow10.(18) then add_subnormal buf mant (t - 1)
  else
    let vp, vp_exact = scaled (mv + 2) t and vm, vm_exact = scaled (mv - 2) t in
    add_digits buf ~vr ~vr_exact ~vp ~vp_exact ~vm ~vm_exact
      ~accept:(mant land 1 = 0) (-t)

external format_float : string -> float -> string = "caml_format_float"

let add_float buf x =
  let bits = Int64.bits_of_float x in
  let ieee_exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF
  and mant = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  if ieee_exp = 0x7FF then Buffer.add_string buf (format_float "%.15g" x)
  else begin
    if Int64.compare bits 0L < 0 then Buffer.add_char buf '-';
    if ieee_exp > 0 then add_normal buf ieee_exp mant
    else if mant = 0 then Buffer.add_char buf '0'
    else
      add_subnormal buf mant
        (17 - int_of_float (Float.floor (Float.log10 (Float.abs x))))
  end

let add_value buf v = Buffer.add_string buf (Dst.Value.to_string v)

(* Focal sets print straight from their masks: Ω as [~], a singleton as
   its value, any other set as {v1, v2, …}. *)
let add_evidence buf e =
  let frame = Dst.Mass.F.frame e in
  let w = Dst.Domain.words frame and sets = Dst.Mass.F.focal_sets e in
  Buffer.add_char buf '[';
  for k = 0 to Dst.Mass.F.focal_count e - 1 do
    if k > 0 then Buffer.add_string buf "; ";
    if Dst.Domain.is_full_at frame sets (k * w) then Buffer.add_char buf '~'
    else Dst.Domain.add_set_at buf frame sets (k * w);
    Buffer.add_char buf '^';
    add_float buf (Dst.Mass.F.focal_mass e k)
  done;
  Buffer.add_char buf ']'

let add_support buf s =
  Buffer.add_char buf '(';
  add_float buf (Dst.Support.sn s);
  Buffer.add_string buf ", ";
  add_float buf (Dst.Support.sp s);
  Buffer.add_char buf ')'

let add_cell buf = function
  | Etuple.Definite v -> add_value buf v
  | Etuple.Evidence e -> add_evidence buf e

(* Key values, cells and the membership pair, separated by " | ". *)
let add_row buf t =
  let field add x =
    add buf x;
    Buffer.add_string buf " | "
  in
  List.iter (field add_value) (Etuple.key t);
  List.iter (field add_cell) (Etuple.cells t);
  add_support buf (Etuple.tm t)

let attr_decl a =
  match Attr.kind a with
  | Attr.Definite k -> Attr.name a ^ " : " ^ k
  | Attr.Evidential d ->
      Attr.name a ^ " : evidence {"
      ^ String.concat ", "
          (List.map Dst.Value.to_string
             (Dst.Vset.to_list (Dst.Domain.values d)))
      ^ "}"

let add_schema buf schema =
  let line directive body =
    Buffer.add_string buf directive;
    Buffer.add_string buf body;
    Buffer.add_char buf '\n'
  in
  line "relation " (Schema.name schema);
  List.iter (fun a -> line "key " (attr_decl a)) (Schema.key schema);
  List.iter (fun a -> line "attr " (attr_decl a)) (Schema.nonkey schema)

let schema_to_string schema =
  let buf = Buffer.create 128 in
  add_schema buf schema;
  Buffer.contents buf

let schema_of_string s =
  match relations_of_string s with
  | [ r ] -> Relation.schema r
  | l -> fail 0 "expected exactly one relation header, found %d" (List.length l)

let tuple_to_string t =
  let buf = Buffer.create 128 in
  add_row buf t;
  Buffer.contents buf

let tuple_of_string schema s =
  tuple_of_fields schema ~base_col:0 0 s 0 (String.length s)

let to_string r =
  let buf = Buffer.create 4096 in
  add_schema buf (Relation.schema r);
  Relation.iter
    (fun t ->
      Buffer.add_string buf "tuple ";
      add_row buf t;
      Buffer.add_char buf '\n')
    r;
  Buffer.contents buf

(* Both failure channels carry the file path: open_in's Sys_error
   already does, parse errors get it prefixed — a federation of dozens
   of .erd files is undebuggable from "line 3: bad membership pair"
   alone. *)
let load path =
  let body () =
    let ic =
      try open_in path
      with Sys_error m ->
        raise (Sys_error (if string_mentions m path then m else path ^ ": " ^ m))
    in
    let n = in_channel_length ic in
    let content = really_input_string ic n in
    close_in ic;
    let rels =
      try relations_of_string content
      with Io_error { line; col; message } ->
        raise (Io_error { line; col; message = path ^ ": " ^ message })
    in
    Obs.Metrics.incr "io.load.files";
    Obs.Metrics.incr ~by:(List.length rels) "io.load.relations";
    rels
  in
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"io" ~args:[ ("detail", path) ] "io.load" body
  else body ()

(* Write, then rename over [path]: an interrupted save leaves the old
   file (or none) and at worst a stray [path.tmp], never a truncated
   relation file. [close_out] is inside the match so that a failed
   final flush is an error too, not a short file renamed into place. *)
let save path rels =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  match
    List.iter
      (fun r ->
        output_string oc (to_string r);
        output_char oc '\n')
      rels;
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* A text snapshot has no manifest: every .erd file in the directory
   is part of it, and writing one never touches the others. *)
let erd_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".erd")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let load_dir dir = List.concat_map load (erd_files dir)

let save_dir dir named =
  List.iter
    (fun (name, _) ->
      if
        name = ""
        || String.exists (fun c -> c = '/' || c = '\\' || c = '\000') name
      then fail 0 "relation name %S is not usable as a file name" name)
    named;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, r) ->
      let schema = Schema.rename_relation name (Relation.schema r) in
      save
        (Filename.concat dir (name ^ ".erd"))
        [ Relation.map_tuples Option.some schema r ])
    named

(* RFC 4180: fields separated by commas, quoted fields may contain
   commas/newlines, doubled quotes escape a quote. Returns records of
   fields; empty trailing line ignored. *)
let csv_records input =
  let records = ref [] and fields = ref [] and buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let n = String.length input in
  let rec plain i =
    if i >= n then (if Buffer.length buf > 0 || !fields <> [] then flush_record ())
    else
      match input.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '\n' ->
          flush_record ();
          plain (i + 1)
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted i =
    if i >= n then fail 0 "unterminated quoted CSV field"
    else
      match input.[i] with
      | '"' when i + 1 < n && input.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  in
  plain 0;
  List.rev !records

let relation_of_csv schema input =
  match csv_records input with
  | [] -> fail 0 "empty CSV document"
  | header :: rows ->
      let expected_header =
        List.map Attr.name (Schema.attrs schema) @ [ "(sn,sp)" ]
      in
      if header <> expected_header then
        fail 1 "CSV header does not match the schema (expected %s)"
          (String.concat "," expected_header);
      List.fold_left
        (fun (r, lineno) fields ->
          let expected = Schema.arity schema + 1 in
          if List.length fields <> expected then
            fail lineno "expected %d fields, got %d" expected
              (List.length fields);
          List.iter
            (fun f ->
              if String.contains f '|' then
                fail lineno "CSV field contains '|', which the cell syntax reserves")
            fields;
          let row = String.concat "|" fields in
          let tuple =
            tuple_of_fields schema ~base_col:0 lineno row 0 (String.length row)
          in
          match Relation.add r tuple with
          | r -> (r, lineno + 1)
          | exception Relation.Duplicate_key _ -> fail lineno "duplicate key"
          | exception Relation.Relation_error m -> fail lineno "%s" m)
        (Relation.empty schema, 2)
        rows
      |> fst
