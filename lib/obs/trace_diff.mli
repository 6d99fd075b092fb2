(** Aligned comparison of two JSONL traces — [vpart_cli trace diff].

    Both traces are folded through {!Profile.of_events}; span rows are
    aligned by full span {e path} (the folded-stack key, e.g.
    ["mip.solve;simplex.solve;simplex.lu_refactor"]) and counter rows by
    counter name (totals summed over the whole trace).  Each row gets a
    verdict against a noise threshold: a relative change within
    [threshold_pct] — or an absolute change below the per-kind floor —
    is {!Neutral}; beyond that, more time / larger counter total in the
    current trace is a {!Regression}, less is an {!Improvement}.  Rows
    present on only one side are scored against an implicit zero (a span
    that appears only in the current trace with non-trivial time is a
    regression; one that disappeared is an improvement).

    Counter verdicts are directional in the same raw sense (more events
    = regression); for counters where "more" is good, read the sign, not
    the label — the report is forensics, not policy.  Exit-code policy
    lives in the CLI ([trace diff --gate]). *)

type verdict = Regression | Improvement | Neutral

type row = {
  kind : [ `Span | `Counter ];
  key : string;  (** ";"-joined span path, or counter name *)
  base_calls : float;  (** span calls / counter events in the baseline *)
  base_value : float;  (** span seconds / counter total in the baseline *)
  cur_calls : float;
  cur_value : float;
  delta : float;        (** [cur_value -. base_value] *)
  pct : float option;   (** 100 * delta / base_value when base_value <> 0 *)
  verdict : verdict;
}

type options = {
  threshold_pct : float;     (** relative noise band, default 10. *)
  min_span_seconds : float;  (** absolute span floor, default 1e-3 *)
  min_counter_delta : float; (** absolute counter floor, default 0.5 *)
}

val default_options : options

type report = {
  rows : row list;
      (** spans first then counters, each sorted by |delta| descending
          (ties by key) — the biggest movers lead. *)
  regressions : int;
  improvements : int;
  neutral : int;
}

val diff :
  ?options:options ->
  (float * Obs.event) list ->
  (float * Obs.event) list ->
  report
(** [diff baseline current]. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Json.t
