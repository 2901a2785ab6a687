(** The paper's evaluation (Figures 4–9) as data: every series the
    reproduction runs, with its sizes or MRAI values, seeds and spec
    construction.  [bench/main.exe]'s [fig4]/[fig5]/[fig8]/[fig9]
    groups print these series as tables and [bgpsim figures] writes
    them as CSV, both by iterating {!all}.

    Figures 4 & 6 are two views (durations, exhaustions) of the same
    runs, as are Figures 5 & 7, so one series serves each pair. *)

type series = {
  stem : string;
      (** CSV file stem.  It starts with the bench group that prints
          the series ([fig4], [fig5], [fig8] or [fig9]). *)
  captions : string * string;
      (** Titles of the series' two bench tables: durations and
          exhaustions (Figs 4–7), or normalised exhaustions and
          convergence time (Figs 8–9). *)
  x_label : string;  (** ["size"], ["n"] (B-Clique half size) or ["mrai"] *)
  xs : float list;
  seeds : int list;
  per_enhancement : bool;
      (** Figs 8–9: the series runs once per {!Bgp.Enhancement.all}
          mechanism.  Otherwise it runs standard BGP only. *)
  make : float -> Experiment.spec;  (** standard-BGP spec at [x] *)
}

val all : series list
(** Fig 4(a,b,c), Fig 5(a,b), Fig 8(a,b), Fig 8(c,d), Fig 9(a,b),
    Fig 9(c,d), in that order.  Internet [T_long] (Fig 9c,d), whose
    looping is a rare event, runs seeds 1–6; every other series runs
    {!seeds}. *)

val seeds : int list
(** Seeds 1–3: the repetition count of every series but Fig 9(c,d),
    reused by the bench's ablation and extension groups. *)

val in_group : string -> series list
(** The series a bench group prints, in {!all} order. *)

val runs :
  series -> (Bgp.Enhancement.t * string * (float -> Experiment.spec)) list
(** A series' run sets as [(mechanism, CSV stem, spec maker)]: one
    [(Standard, stem, make)], or with [per_enhancement] one per
    mechanism of {!Bgp.Enhancement.all}, stemmed ["<stem>_<name>"]. *)
