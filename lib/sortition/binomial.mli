(** Binomial distribution B(k; n, p) in log space, numerically stable
    across sortition's extreme regimes (n up to millions of currency
    units, p down to 1e-6). *)

val log_pmf : k:int -> n:int -> p:float -> float
val pmf : k:int -> n:int -> p:float -> float

val cdf : k:int -> n:int -> p:float -> float
(** [cdf ~k ~n ~p] is P(X <= k). *)

val select_j : frac:float -> w:int -> p:float -> int
(** The interval search at the heart of Algorithms 1-2: the number of
    selected sub-users [j] such that [frac] falls in
    [\[cdf(j-1), cdf(j))]. [frac] is the VRF hash divided by
    2{^hashlen}; [w] the user's weight; [p = tau/W]. *)

val zero_threshold : w:int -> p:float -> float
(** A bound below which [select_j] selects nothing: whenever
    [frac < zero_threshold ~w ~p], [select_j ~frac ~w ~p = 0]. It is
    exactly the B(0) [select_j] itself computes (0 where it never
    returns 0), so skipping [select_j] below it changes no result. *)
