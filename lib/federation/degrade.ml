module R = Workload.Rng

type status =
  | Delivered
  | Recovered of int
  | Stale
  | Failed of Source.error

type outcome = {
  source : string;
  attempts : int;
  latency_ms : float;
  alpha : float;
  status : status;
}

type config = {
  policy : Retry.policy;
  min_sources : int;
  budget_ms : float option;
  alpha_per_failure : float;
  stale_alpha : float;
  alpha_floor : float;
  conflict_discount : bool;
}

let default =
  { policy = Retry.default;
    min_sources = 1;
    budget_ms = None;
    alpha_per_failure = 0.8;
    stale_alpha = 0.8;
    alpha_floor = 0.05;
    conflict_discount = false }

type report = {
  multi : Integration.Multi.report;
  outcomes : outcome list;
  elapsed_ms : float;
}

type failure =
  | No_sources
  | Quorum_not_met of {
      delivered : int;
      required : int;
      outcomes : outcome list;
    }

let validate cfg =
  if cfg.min_sources < 0 then
    invalid_arg "Degrade.integrate: min_sources must be >= 0";
  if cfg.alpha_per_failure <= 0.0 || cfg.alpha_per_failure > 1.0 then
    invalid_arg "Degrade.integrate: alpha_per_failure must be in (0,1]";
  if cfg.stale_alpha <= 0.0 || cfg.stale_alpha > 1.0 then
    invalid_arg "Degrade.integrate: stale_alpha must be in (0,1]";
  if cfg.alpha_floor <= 0.0 || cfg.alpha_floor > 1.0 then
    invalid_arg "Degrade.integrate: alpha_floor must be in (0,1]";
  match cfg.budget_ms with
  | Some b when b <= 0.0 -> invalid_arg "Degrade.integrate: budget must be > 0"
  | _ -> ()

(* Delivery-behaviour prior: each failed attempt is evidence against the
   source, staleness more so. Floored so discounting can never zero out
   sn (Theorem-1 closure). *)
let prior_alpha cfg ~failures ~stale =
  let decay = cfg.alpha_per_failure ** float_of_int failures in
  let stale_factor = if stale then cfg.stale_alpha else 1.0 in
  Float.max cfg.alpha_floor (decay *. stale_factor)

type fetched =
  | Got of { relation : Erm.Relation.t; trace : Retry.trace; stale : bool }
  | Lost of { error : Source.error; trace : Retry.trace }

let fetch_all cfg ~seed ~clock sources =
  let start = clock.Clock.now_ms () in
  List.map
    (fun (s : Source.t) ->
      let rng = R.create (seed lxor Hashtbl.hash ("retry:" ^ s.name)) in
      let elapsed = clock.Clock.now_ms () -. start in
      let remaining =
        match cfg.budget_ms with
        | Some b -> Some (b -. elapsed)
        | None -> None
      in
      match remaining with
      | Some r when r <= 0.0 ->
          let budget = Option.get cfg.budget_ms in
          ( s.name,
            Lost
              { error = Source.Budget_exhausted { budget_ms = budget };
                trace = { Retry.attempts = 0; total_ms = 0.0; failures = [] }
              } )
      | _ ->
          let deadline_ms =
            match (cfg.policy.Retry.deadline_ms, remaining) with
            | None, None -> None
            | Some d, None -> Some d
            | None, Some r -> Some r
            | Some d, Some r -> Some (Float.min d r)
          in
          let policy = { cfg.policy with Retry.deadline_ms } in
          let stale_from trace =
            match cfg.policy.Retry.deadline_ms with
            | Some d -> trace.Retry.total_ms > d
            | None -> false
          in
          let attempt () =
            match Retry.fetch ~rng ~clock policy s with
            | Ok (relation, trace) ->
                Obs.Metrics.incr "federation.fetch.delivered";
                (s.name, Got { relation; trace; stale = stale_from trace })
            | Error (error, trace) ->
                Obs.Metrics.incr "federation.fetch.lost";
                (s.name, Lost { error; trace })
          in
          if Obs.Trace.on () then
            Obs.Trace.with_span ~cat:"federation"
              ~args:[ ("detail", s.name) ]
              "federation.fetch" attempt
          else attempt ())
    sources

let pp_status ppf = function
  | Delivered -> Format.pp_print_string ppf "delivered"
  | Recovered n -> Format.fprintf ppf "recovered after %d failure(s)" n
  | Stale -> Format.pp_print_string ppf "delivered stale (past deadline)"
  | Failed e -> Format.fprintf ppf "failed: %a" Source.pp_error e

let integrate ?(config = default) ?(seed = 0)
    ?(integrate = Integration.Multi.integrate ?sharded:None) ~clock sources =
  validate config;
  match sources with
  | [] -> Error No_sources
  | _ ->
      let start = clock.Clock.now_ms () in
      let fetched = fetch_all config ~seed ~clock sources in
      (* Survivors must be union-compatible with the first delivered
         relation; the rest fail through the typed channel instead of an
         Incompatible_schemas escape from the merge fold. *)
      let reference =
        List.find_map
          (function
            | _, Got { relation; _ } ->
                Some (Erm.Relation.schema relation)
            | _, Lost _ -> None)
          fetched
      in
      let fetched =
        List.map
          (fun (name, f) ->
            match (f, reference) with
            | Got { relation; trace; _ }, Some ref_schema
              when not
                     (Erm.Schema.union_compatible ref_schema
                        (Erm.Relation.schema relation)) ->
                ( name,
                  Lost
                    { error =
                        Source.Schema_mismatch
                          (Printf.sprintf
                             "%s is not union-compatible with the first \
                              delivered source"
                             name);
                      trace } )
            | _ -> (name, f))
          fetched
      in
      let delivered =
        List.filter_map
          (function
            | name, Got { relation; trace; stale } ->
                Some (name, relation, trace, stale)
            | _, Lost _ -> None)
          fetched
      in
      let outcome_of (name, f) =
        match f with
        | Got { trace; stale; _ } ->
            let failures = trace.Retry.attempts - 1 in
            { source = name;
              attempts = trace.Retry.attempts;
              latency_ms = trace.Retry.total_ms;
              alpha = prior_alpha config ~failures ~stale;
              status =
                (if stale then Stale
                 else if failures > 0 then Recovered failures
                 else Delivered) }
        | Lost { error; trace } ->
            { source = name;
              attempts = trace.Retry.attempts;
              latency_ms = trace.Retry.total_ms;
              alpha = 1.0;
              status = Failed error }
      in
      let outcomes = List.map outcome_of fetched in
      if Obs.Log.on () then
        List.iter
          (fun o ->
            match o.status with
            | Delivered -> ()
            | status ->
                let severity =
                  match status with
                  | Failed _ -> Obs.Log.Error
                  | _ -> Obs.Log.Warn
                in
                Obs.Log.record ~severity
                  ~fields:
                    [ ("source", o.source);
                      ("attempts", string_of_int o.attempts) ]
                  Obs.Log.Degrade
                  (Format.asprintf "%a" pp_status status))
          outcomes;
      let required =
        if config.min_sources = 0 then List.length sources
        else config.min_sources
      in
      if List.length delivered < required then
        Error
          (Quorum_not_met
             { delivered = List.length delivered; required; outcomes })
      else
        let prior =
          List.map
            (fun (name, _, trace, stale) ->
              (name, prior_alpha config ~failures:(trace.Retry.attempts - 1) ~stale))
            delivered
        in
        let multi_sources =
          List.map
            (fun (name, relation, _, _) ->
              { Integration.Multi.source_name = name;
                source_relation = relation })
            delivered
        in
        let multi =
          integrate ~discount:config.conflict_discount
            ~alpha_floor:config.alpha_floor ~prior multi_sources
        in
        (* Report the α the merge actually used (prior × conflict rate),
           not just the delivery prior. *)
        let outcomes =
          List.map
            (fun o ->
              match
                List.assoc_opt o.source multi.Integration.Multi.reliabilities
              with
              | Some a when not (match o.status with Failed _ -> true | _ -> false) ->
                  { o with alpha = a }
              | _ -> o)
            outcomes
        in
        Ok { multi; outcomes; elapsed_ms = clock.Clock.now_ms () -. start }

let pp_outcome ppf o =
  match o.status with
  | Failed _ ->
      Format.fprintf ppf "source %s: %a [%d attempt(s), %.0f ms]" o.source
        pp_status o.status o.attempts o.latency_ms
  | _ ->
      Format.fprintf ppf
        "source %s: %a [%d attempt(s), %.0f ms, alpha %.3f]" o.source
        pp_status o.status o.attempts o.latency_ms o.alpha

let pp_outcomes ppf outcomes =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_outcome)
    outcomes

let pp_failure ppf = function
  | No_sources -> Format.pp_print_string ppf "no sources selected"
  | Quorum_not_met { delivered; required; _ } ->
      Format.fprintf ppf "quorum not met: %d of %d required source(s) delivered"
        delivered required
