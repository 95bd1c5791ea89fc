module P = Query.Physical

let execute cfg ?ctx env plan = P.execute ?ctx ~sharded:cfg env plan
let reset_scan_cache = P.reset_scan_cache
let install () = ()
let integrate cfg = Integration.Multi.integrate ~sharded:cfg
