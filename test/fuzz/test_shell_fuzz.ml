(* A REPL-session fuzzer: random command sequences go to eridb on stdin,
   and the shell must survive every one of them, exiting 0 with no
   escaped exception in its output. A library failure is an "error: …"
   line and the shell carries on; only a bug may crash it.

   The sequences mix every dot-command with valid and invalid
   arguments, queries from the parser's grammar and mutations of them,
   the sample data, the malformed fixtures and the total-conflict pair,
   and paths into missing directories or under a regular file. Each
   sequence runs in a fresh directory holding one regular file,
   [plain]. The seed comes from QCHECK_SEED. *)

open QCheck

let here = Sys.getcwd ()
let abs p = Filename.concat here p
let eridb = abs "../../bin/eridb.exe"
let data = abs "../../data"
let malformed = abs "../fixtures/malformed"

let files =
  [ Filename.concat data "restaurants.erd";
    Filename.concat data "restaurants_delta.erd";
    abs "../cli/conflict.erd" ]
  @ List.map (Filename.concat malformed)
      (List.sort compare (Array.to_list (Sys.readdir malformed)))

(* Relative paths resolve in the sequence's own directory. *)
let out_paths =
  [ "out.erd"; "snap"; "st"; "."; "plain"; "plain/x.erd"; "no_such_dir/x.erd";
    "no_such_dir/x.csv"; "plain/s" ]

(* Directories the shell may write into; it only reads [data] and
   [malformed]. *)
let dirs = [ "snap"; "st"; "."; "no_such_dir"; "no_such_dir/s"; "plain"; "plain/s" ]

let relations =
  [ "ra"; "rb"; "rc"; "m_a"; "m_b"; "rm_a"; "rm_b"; "p"; "q"; "r"; "z"; "nosuch" ]

let attrs =
  [ "rname"; "street"; "bldg-no"; "speciality"; "rating"; "best-dish"; "k";
    "e"; "r_rname"; "nosuch" ]

let sets = [ "{si}"; "{ex, gd}"; "{a}"; "{b}"; "{zz}"; "{}" ]

open Gen

let rec query depth =
  let atom =
    if depth <= 0 then oneofl relations
    else
      frequency
        [ (4, oneofl relations);
          (1, map (Printf.sprintf "(%s)") (query (depth - 1)));
          (1, map (Printf.sprintf "(%s PREFIX r_)") (oneofl relations)) ]
  in
  let cmp = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
  let pred =
    frequency
      [ (3, map2 (Printf.sprintf "%s IS %s") (oneofl attrs) (oneofl sets));
        ( 2,
          map3 (Printf.sprintf "%s %s %s") (oneofl attrs) cmp
            (oneofl [ "500"; "\"wok\""; "rname"; "1.5"; "[ex^1]" ]) );
        (1, return "TRUE") ]
  in
  let pred =
    frequency
      [ (4, pred);
        (1, map2 (Printf.sprintf "%s AND %s") pred pred);
        (1, map (Printf.sprintf "NOT %s") pred) ]
  in
  let thresh =
    map3 (Printf.sprintf " WITH %s %s %s") (oneofl [ "SN"; "SP" ]) cmp
      (oneofl [ "0"; "0.5"; "1"; "2" ])
  in
  let opt g = frequency [ (2, return ""); (1, g) ] in
  let joinable =
    frequency
      [ (4, atom);
        ( 1,
          map3
            (fun a b (p, t) -> Printf.sprintf "%s JOIN %s ON %s%s" a b p t)
            atom atom (pair pred (opt thresh)) );
        (1, map2 (Printf.sprintf "%s TIMES %s") atom atom) ]
  in
  let cols =
    oneof
      [ return "*"; map (String.concat ", ") (list_size (1 -- 3) (oneofl attrs)) ]
  in
  let term =
    frequency
      [ (2, joinable);
        ( 2,
          map3
            (fun c j (w, t, tail) ->
              Printf.sprintf "SELECT %s FROM %s%s%s%s" c j w t tail)
            cols joinable
            (triple
               (opt (map (Printf.sprintf " WHERE %s") pred))
               (opt thresh)
               (opt
                  (oneofl
                     [ " ORDER BY SN DESC"; " ORDER BY SP ASC LIMIT 2";
                       " LIMIT 0" ]))) ) ]
  in
  frequency
    [ (3, term);
      ( 1,
        map3
          (fun a op b -> Printf.sprintf "%s %s %s" a op b)
          term
          (oneofl [ "UNION"; "INTERSECT"; "EXCEPT" ])
          term ) ]

(* A syntactic mutation of a grammatical query: drop, duplicate or
   swap a token, splice in junk, or cut the text short. *)
let mutate q =
  let toks = String.split_on_char ' ' q in
  let edit f g =
    map (fun x -> String.concat " " (List.concat (List.mapi (f x) toks))) g
  in
  let junk =
    oneofl
      [ "("; ")"; "{"; "["; "\""; "^"; ","; "WITH"; "SN"; "1e999"; "-"; "|";
        "ON"; "FROM"; "~" ]
  in
  int_bound (List.length toks - 1) >>= fun i ->
  oneof
    [ edit (fun () j t -> if j = i then [] else [ t ]) unit;
      edit (fun () j t -> if j = i then [ t; t ] else [ t ]) unit;
      edit (fun s j t -> if j = i then [ s; t ] else [ t ]) junk;
      map
        (fun j ->
          let a = Array.of_list toks in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x;
          String.concat " " (Array.to_list a))
        (int_bound (List.length toks - 1));
      map (fun k -> String.sub q 0 k) (int_bound (String.length q)) ]

let any_query =
  frequency [ (3, query 2); (2, query 2 >>= mutate) ]

let command =
  let rel = oneofl relations and out = oneofl out_paths in
  let f1 fmt g = map (Printf.sprintf fmt) g in
  let f2 fmt g h = map2 (Printf.sprintf fmt) g h in
  frequency
    [ (4, f1 ".load %s" (oneofl (files @ out_paths)));
      (4, any_query);
      (2, f2 ".let %s = %s" (oneofl [ "z"; "w"; "" ]) any_query);
      (1, f1 ".plan %s" any_query);
      (1, f1 ".explain %s" any_query);
      (1, f1 ".physical %s" any_query);
      (2, f1 ".analyze %s" any_query);
      (1, f1 ".check %s" any_query);
      (2, f2 ".save %s %s" rel out);
      (2, f2 ".csv %s %s" rel (oneofl ("" :: out_paths)));
      (2, f1 ".open %s" (oneofl (data :: malformed :: dirs)));
      (2, f1 ".commit %s" (oneofl dirs));
      (2, f2 ".store create %s %s" (oneofl dirs) rel);
      (2, f1 ".store open %s" (oneofl dirs));
      (2, f1 ".store delta %s" (oneofl (files @ out_paths)));
      (1, oneofl [ ".store status"; ".store"; ".store bogus x" ]);
      (1, f1 ".schema %s" rel);
      (1, f1 ".show %s" rel);
      (1, f1 ".summary %s" rel);
      (1, f2 ".top %s %s" rel (oneofl [ "2"; "0"; "-1"; "x"; "" ]));
      (1, f2 ".assess %s %s" rel rel);
      (1, f2 ".diff %s %s" rel rel);
      (1, f1 ".strict %s" (oneofl [ "on"; "off"; ""; "x" ]));
      ( 1,
        f1 ".rule %s"
          (oneofl
             [ ""; "dempster"; "yager 0.5"; "discount:0.3"; "averaging";
               "dubois-prade 0.9 quarantine"; "bogus"; "dempster 2";
               "yager 0.5 dempster x" ]) );
      (1, f1 ".trace %s" (oneofl [ "on"; "off"; ""; "x" ]));
      (1, f1 ".metrics %s" (oneofl [ ""; "reset"; "x" ]));
      (1, f1 ".log %s" (oneofl [ "on"; "off"; "dump"; ""; "x" ]));
      (1, f1 ".events %s" (oneofl [ ""; "3"; "-1"; "x" ]));
      (1, f1 ".provenance %s" (oneofl [ "on"; "off"; "reset"; ""; "x" ]));
      ( 1,
        f1 ".why %s"
          (oneofl [ ""; "k1"; "k1 e"; "wok rating"; "wok nosuch"; "x" ]) );
      (1, oneofl [ ".sweep"; ".tables"; ".help"; ".bogus"; "# comment"; "" ]) ]

let session =
  make
    ~print:(fun cmds -> String.concat "\n" cmds)
    ~shrink:Shrink.list
    (list_size (1 -- 10) command)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let root = Filename.temp_dir "eridb_shell_fuzz" ""
let counter = ref 0

let survives cmds =
  incr counter;
  let dir = Filename.concat root (string_of_int !counter) in
  Sys.mkdir dir 0o755;
  Out_channel.with_open_text (Filename.concat dir "plain") (fun oc ->
      output_string oc "not an .erd file\n");
  Out_channel.with_open_text (Filename.concat dir "input") (fun oc ->
      List.iter (fun c -> output_string oc (c ^ "\n")) cmds);
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s < input > output 2>&1" (Filename.quote dir)
         (Filename.quote eridb))
  in
  let out = read_file (Filename.concat dir "output") in
  if code <> 0 || contains out "Fatal error" || contains out "exception" then
    Test.fail_reportf "exit %d, output:\n%s" code out
  else true

let () =
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)));
  Alcotest.run "shell_fuzz"
    [ ( "repl",
        [ QCheck_alcotest.to_alcotest
            (Test.make ~count:200 ~name:"no command sequence crashes the shell"
               session survives) ] ) ]
