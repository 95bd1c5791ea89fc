(** The [.erd] relation linter: every finding in a file, where the
    loader stops at the first.

    The linter is a fold over {!Erm.Io.scan}, the loader's own grammar,
    so it parses each file once and never disagrees with the loader on
    syntax. Scan errors keep the loader's position and message under a
    code: declarations and directives (E001), attribute kinds and
    domains (E005), arity (E006), definite values (E007), evidence
    syntax (E008) and membership syntax (E014). The rest are checks over
    what the scan parsed: evidential or empty keys (E003), duplicate
    attribute names (E004) and relation names (E002), masses as written
    that do not normalize within the float tolerance (E009), mass on the
    empty set (E010), negative masses (E011), focal values outside the
    declared domain (E012), duplicate keys (E013, in key order),
    out-of-range membership pairs (E015) and CWA_ER-inadmissible
    [sn ≤ 0] tuples (E016). Zero masses and duplicate focal members,
    which the runtime silently folds away, are warnings (E019–E020).
    Each field reports its first syntax error; the checks report every
    finding.

    An evidence cell or schema is an error exactly when the loader
    rejects it; a rejection that no finer code explains is E099. Hence,
    by construction: a file the linter reports no errors for loads
    through {!Erm.Io.relations_of_string}, and a file it reports an
    error for does not. *)

val lint_string : ?file:string -> string -> Diagnostic.t list
(** Lints [.erd] source text. [file] tags the diagnostics' positions. *)

val lint_file : string -> Diagnostic.t list
(** Reads and lints a file; an unreadable file yields a single [E017]
    error rather than an exception. *)
