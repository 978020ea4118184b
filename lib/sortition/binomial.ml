(* Binomial distribution B(k; w, p), computed in log space so that the
   extreme regimes of sortition (w up to millions of currency units,
   p = tau/W down to 1e-6) stay numerically stable. *)

let log_pmf ~(k : int) ~(n : int) ~(p : float) : float =
  if k < 0 || k > n then neg_infinity
  else if p <= 0.0 then if k = 0 then 0.0 else neg_infinity
  else if p >= 1.0 then if k = n then 0.0 else neg_infinity
  else
    Special.log_choose ~n ~k
    +. (float_of_int k *. log p)
    +. (float_of_int (n - k) *. log1p (-.p))

let pmf ~k ~n ~p = exp (log_pmf ~k ~n ~p)

let cdf ~(k : int) ~(n : int) ~(p : float) : float =
  if k < 0 then 0.0
  else if k >= n then 1.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to k do
      acc := !acc +. pmf ~k:i ~n ~p
    done;
    min 1.0 !acc
  end

(* The interval search at the heart of Algorithm 1 / Algorithm 2:
   find j such that frac lies in
     [ sum_{k<j} B(k; w, p),  sum_{k<=j} B(k; w, p) ).
   Equivalently: the smallest j with frac < cdf(j). The paper's interval
   notation starts the first interval at B(0); the standard reading
   (and the one the reference implementation uses) assigns j = 0 to
   frac < B(0), which is what we implement.

   The scan is O(j): B(0) is computed once and the recurrence
   B(k+1) = B(k) * (w-k)/(k+1) * p/(1-p) advances the term. When w*p is
   large enough that B(0) underflows, we restart the accumulation from
   the distribution mode in log space. *)
let select_j ~(frac : float) ~(w : int) ~(p : float) : int =
  if w = 0 || p <= 0.0 then 0
  else if p >= 1.0 then w
  else begin
    let log_b0 = float_of_int w *. log1p (-.p) in
    let ratio = p /. (1.0 -. p) in
    if log_b0 > -700.0 then begin
      (* Common case: direct accumulation from k = 0. *)
      let term = ref (exp log_b0) in
      let acc = ref !term in
      let j = ref 0 in
      while frac >= !acc && !j < w do
        let k = !j in
        term := !term *. (float_of_int (w - k) /. float_of_int (k + 1)) *. ratio;
        acc := !acc +. !term;
        incr j
      done;
      !j
    end
    else begin
      (* Heavy-selection regime (w*p >> 1): walk outward from the mode.
         Below-mode mass up to k is 1 - sum_{i>k}; we accumulate the
         full pmf over a +-20 sigma window around the mode, which holds
         all representable mass. *)
      let mean = float_of_int w *. p in
      let sigma = sqrt (mean *. (1.0 -. p)) in
      let lo = max 0 (int_of_float (mean -. (20.0 *. sigma))) in
      let hi = min w (int_of_float (mean +. (20.0 *. sigma)) + 1) in
      (* Mass below the window is negligible (< 1e-80) but must still
         count toward the cdf; treat it as already accumulated. *)
      let acc = ref 0.0 in
      let j = ref lo in
      let found = ref false in
      let k = ref lo in
      while (not !found) && !k <= hi do
        acc := !acc +. exp (log_pmf ~k:!k ~n:w ~p);
        if frac < !acc then begin
          j := !k;
          found := true
        end;
        incr k
      done;
      if !found then !j else hi
    end
  end

(* The B(0) that [select_j] compares [frac] against: [select_j] returns
   0 whenever [frac < zero_threshold ~w ~p]. Exact, not approximate -
   it repeats [select_j]'s own first step - so a sweep may skip
   [select_j] below it without changing any result. The heavy regime,
   where 0 selections are out of reach, reports 0. *)
let zero_threshold ~(w : int) ~(p : float) : float =
  if w = 0 || p <= 0.0 then infinity
  else if p >= 1.0 then 0.0
  else begin
    let log_b0 = float_of_int w *. log1p (-.p) in
    if log_b0 > -700.0 then exp log_b0 else 0.0
  end
