(* The paper's worked example, recomputed before anything is timed, so
   a build that gets the paper wrong cannot produce plausible numbers.
   The same checks as bench/main.ml runs. *)

let checks () =
  let select pred =
    Erm.Ops.select ~threshold:(Erm.Threshold.sn_gt 0.0) pred Paperdata.r_a
  in
  [ ( "sec2.2 combination",
      Dst.Mass.F.equal
        (Dst.Mass.F.combine Paperdata.wok_m1 Paperdata.wok_m2)
        Paperdata.wok_combined );
    ( "table2",
      Erm.Relation.equal
        (select (Erm.Predicate.is_values "speciality" [ "si" ]))
        Paperdata.table2 );
    ( "table3",
      Erm.Relation.equal
        (select
           Erm.Predicate.(
             is_values "speciality" [ "mu" ] &&& is_values "rating" [ "ex" ]))
        Paperdata.table3 );
    ( "table4",
      Erm.Relation.equal
        (Erm.Ops.union Paperdata.r_a Paperdata.r_b)
        Paperdata.table4 );
    ( "table5",
      Erm.Relation.equal
        (Erm.Ops.project Paperdata.table5_attrs Paperdata.r_a)
        Paperdata.table5 );
    ( "figure1 query",
      Erm.Relation.cardinal
        (Query.Eval.run
           [ ("ra", Paperdata.r_a); ("rb", Paperdata.r_b) ]
           "SELECT * FROM (ra UNION rb) WHERE speciality IS {mu} AND rating \
            IS {ex} WITH SN > 0.5")
      = 2 ) ]
