(* Right-looking sparse LU with Markowitz pivoting.

   The active submatrix lives in dynamic sparse columns (exact: only
   active-row entries, kept current by every update) plus per-row lists
   of the columns whose pattern ever included the row (append-only, so
   they may carry stale references; membership is re-validated by
   scanning the column before use).  Row/column nonzero counts are
   exact, and columns are bucketed by count in doubly-linked lists so
   the pivot search walks the sparsest columns first.

   At step k the search examines buckets in increasing column count,
   collecting up to [search_cols] candidate columns with an acceptable
   entry (|a_ij| >= tau * colmax_j), and takes the entry minimizing the
   Markowitz cost (rowcnt-1)(colcnt-1), largest magnitude on ties.  The
   search stops early once the best cost cannot be beaten by the next
   bucket — the standard Suhl-style compromise between fill optimality
   and search time.

   Elimination is classic right-looking: the pivot column's multipliers
   become column k of L and the pivot row becomes row k of U.  When the
   pivot column is a singleton (no multipliers: a slack, typically, and
   the large majority of steps on slack-heavy bases) the update of an
   active column containing the pivot row is just the removal of that
   row, done in place with the entry order kept.  Otherwise each such
   column is rebuilt through a scatter/gather workspace and fill entries
   update the row lists and counts.  Both paths drop exact zeros.  The
   caller's columns are shared until the first write to each (copy on
   write), so a column the elimination never touches is never copied.
   After the last step the stored indices are remapped into pivot-order
   space so the triangular solves need no indirection. *)

type t = {
  m : int;
  lcol_idx : int array array;  (* step k -> below-diagonal column of L *)
  lcol_val : float array array;
  urow_idx : int array array;  (* step k -> right-of-diagonal row of U *)
  urow_val : float array array;
  upiv : float array;          (* diagonal of U, pivot order *)
  rowperm : int array;         (* step -> original constraint row *)
  colperm : int array;         (* step -> basis position *)
  nnz : int;
}

let abs_tol = 1e-12
let tau = 0.1
let search_cols = 8

let identity m =
  {
    m;
    lcol_idx = Array.make m [||];
    lcol_val = Array.make m [||];
    urow_idx = Array.make m [||];
    urow_val = Array.make m [||];
    upiv = Array.make m 1.;
    rowperm = Array.init m Fun.id;
    colperm = Array.init m Fun.id;
    nnz = m;
  }

let size t = t.m
let nnz t = t.nnz

exception Singular

let factor (cols_idx : int array array) (cols_val : float array array) =
  let m = Array.length cols_idx in
  if m = 0 then Some (identity 0)
  else begin
    (* Dynamic columns: exact active-submatrix contents in the first
       c_len entries (c_len is also the column's count).  A column still
       shares the caller's arrays until [owned] says otherwise. *)
    let c_idx = Array.copy cols_idx in
    let c_val = Array.copy cols_val in
    let c_len = Array.map Array.length cols_idx in
    let owned = Array.make m false in
    (* Append-only row lists (possibly stale) + exact row counts.  Row i
       lists the columns r_store.(r_beg.(i) .. r_beg.(i) + r_len.(i) - 1)
       of one flat store, laid out at its exact initial size; a row that
       outgrows its room through fill moves to the end of the store, in
       order. *)
    let rowcnt = Array.make m 0 in
    for j = 0 to m - 1 do
      let ci = cols_idx.(j) in
      for e = 0 to Array.length ci - 1 do
        rowcnt.(ci.(e)) <- rowcnt.(ci.(e)) + 1
      done
    done;
    let r_beg = Array.make m 0 and r_cap = Array.copy rowcnt in
    let r_len = Array.make m 0 in
    let top = ref 0 in
    for i = 0 to m - 1 do
      r_beg.(i) <- !top;
      top := !top + rowcnt.(i)
    done;
    let r_store = ref (Array.make (2 * !top) 0) in
    let rpush i j =
      if r_len.(i) >= r_cap.(i) then begin
        let cap = max 4 (2 * r_cap.(i)) in
        if !top + cap > Array.length !r_store then begin
          let grown = Array.make (2 * (!top + cap)) 0 in
          Array.blit !r_store 0 grown 0 !top;
          r_store := grown
        end;
        Array.blit !r_store r_beg.(i) !r_store !top r_len.(i);
        r_beg.(i) <- !top;
        r_cap.(i) <- cap;
        top := !top + cap
      end;
      !r_store.(r_beg.(i) + r_len.(i)) <- j;
      r_len.(i) <- r_len.(i) + 1
    in
    for j = 0 to m - 1 do
      let ci = cols_idx.(j) in
      for e = 0 to Array.length ci - 1 do
        rpush ci.(e) j
      done
    done;
    (* Columns bucketed by nonzero count (doubly-linked lists). *)
    let head = Array.make (m + 1) (-1) in
    let nxt = Array.make m (-1) and prv = Array.make m (-1) in
    let cmin = ref 1 in
    let unlink j =
      let c = c_len.(j) in
      if prv.(j) >= 0 then nxt.(prv.(j)) <- nxt.(j) else head.(c) <- nxt.(j);
      if nxt.(j) >= 0 then prv.(nxt.(j)) <- prv.(j);
      prv.(j) <- -1;
      nxt.(j) <- -1
    in
    let link j =
      let c = c_len.(j) in
      prv.(j) <- -1;
      nxt.(j) <- head.(c);
      if head.(c) >= 0 then prv.(head.(c)) <- j;
      head.(c) <- j;
      if c >= 1 && c < !cmin then cmin := c
    in
    for j = 0 to m - 1 do
      link j
    done;
    let relink j len =
      unlink j;
      c_len.(j) <- len;
      link j
    in
    let col_active = Array.make m true in
    (* Outputs (original index space until the final remap). *)
    let lcol_idx = Array.make m [||] and lcol_val = Array.make m [||] in
    let urow_idx = Array.make m [||] and urow_val = Array.make m [||] in
    let upiv = Array.make m 0. in
    let rowperm = Array.make m (-1) and colperm = Array.make m (-1) in
    (* Scatter workspace for column updates; U-row accumulator. *)
    let wval = Array.make m 0. and wmark = Array.make m false in
    let wpat = Array.make m 0 in
    let ui = Array.make m 0 and uv = Array.make m 0. in
    match
      for k = 0 to m - 1 do
        (* ---- pivot search ---- *)
        let best_cost = ref max_int
        and best_col = ref (-1)
        and best_row = ref (-1)
        and best_mag = ref 0. in
        let cands = ref 0 in
        (try
           let cnt = ref (max 1 !cmin) in
           let first_nonempty = ref false in
           while !cnt <= m do
             (if !best_col >= 0 && !best_cost <= (!cnt - 1) * (!cnt - 1) then
                raise Exit);
             let j = ref head.(!cnt) in
             if !j >= 0 && not !first_nonempty then begin
               first_nonempty := true;
               cmin := !cnt
             end;
             while !j >= 0 do
               let jj = !j in
               let cmax = ref 0. in
               for e = 0 to c_len.(jj) - 1 do
                 let a = Float.abs c_val.(jj).(e) in
                 if a > !cmax then cmax := a
               done;
               if !cmax >= abs_tol then begin
                 let thresh = tau *. !cmax in
                 let found = ref false in
                 for e = 0 to c_len.(jj) - 1 do
                   let a = Float.abs c_val.(jj).(e) in
                   if a >= thresh then begin
                     let i = c_idx.(jj).(e) in
                     let cost = (rowcnt.(i) - 1) * (!cnt - 1) in
                     if
                       cost < !best_cost
                       || (cost = !best_cost && a > !best_mag)
                     then begin
                       best_cost := cost;
                       best_col := jj;
                       best_row := i;
                       best_mag := a
                     end;
                     found := true
                   end
                 done;
                 if !found then incr cands
               end;
               if !best_cost = 0 || !cands >= search_cols then raise Exit;
               j := nxt.(jj)
             done;
             incr cnt
           done
         with Exit -> ());
        if !best_col < 0 then raise Singular;
        let pc = !best_col and pr = !best_row in
        colperm.(k) <- pc;
        rowperm.(k) <- pr;
        (* ---- pivot column -> L column k (multipliers) ---- *)
        let piv = ref 0. in
        for e = 0 to c_len.(pc) - 1 do
          if c_idx.(pc).(e) = pr then piv := c_val.(pc).(e)
        done;
        let piv = !piv in
        upiv.(k) <- piv;
        (* a singleton's only entry is row pr, whose count is reset below *)
        let nl = c_len.(pc) - 1 in
        let li, lv =
          if nl = 0 then ([||], [||])
          else begin
            let li = Array.make nl 0 and lv = Array.make nl 0. in
            let p = ref 0 in
            for e = 0 to c_len.(pc) - 1 do
              let i = c_idx.(pc).(e) in
              rowcnt.(i) <- rowcnt.(i) - 1;
              if i <> pr then begin
                li.(!p) <- i;
                lv.(!p) <- c_val.(pc).(e) /. piv;
                incr p
              end
            done;
            lcol_idx.(k) <- li;
            lcol_val.(k) <- lv;
            (li, lv)
          end
        in
        unlink pc;
        col_active.(pc) <- false;
        c_len.(pc) <- 0;
        (* ---- pivot row -> U row k; rank-1 update of touched columns ---- *)
        (* The row list is append-only: a listed column may be stale (its
           row-pr entry cancelled in an earlier update) or a duplicate
           already consumed this step (its row-pr entry was dropped); then
           row pr is absent and the column is left alone.  A column the
           elimination never wrote to still has every original entry, so
           it is never stale. *)
        let nu = ref 0 in
        for e = 0 to r_len.(pr) - 1 do
          (* re-read the store: fill may have grown it *)
          let jj = !r_store.(r_beg.(pr) + e) in
          if col_active.(jj) then
            if nl = 0 then begin
              (* singleton pivot: column jj only loses row pr, in place
                 and in order.  A written column holds no exact zeros:
                 find row pr and close the gap.  The first write instead
                 filters into a private copy, dropping exact zeros. *)
              let len = c_len.(jj) and si = c_idx.(jj) and sv = c_val.(jj) in
              if owned.(jj) then begin
                let p = ref 0 in
                while !p < len && si.(!p) <> pr do
                  incr p
                done;
                if !p < len then begin
                  ui.(!nu) <- jj;
                  uv.(!nu) <- sv.(!p);
                  incr nu;
                  for q = !p to len - 2 do
                    si.(q) <- si.(q + 1);
                    sv.(q) <- sv.(q + 1)
                  done;
                  relink jj (len - 1)
                end
              end
              else begin
                let di = Array.make len 0 and dv = Array.make len 0. in
                let uval = ref 0. and nlen = ref 0 in
                for q = 0 to len - 1 do
                  let i = si.(q) and v = sv.(q) in
                  if i = pr then uval := v
                  else if v <> 0. then begin
                    di.(!nlen) <- i;
                    dv.(!nlen) <- v;
                    incr nlen
                  end
                  else rowcnt.(i) <- rowcnt.(i) - 1
                done;
                ui.(!nu) <- jj;
                uv.(!nu) <- !uval;
                incr nu;
                c_idx.(jj) <- di;
                c_val.(jj) <- dv;
                owned.(jj) <- true;
                relink jj !nlen
              end
            end
            else begin
              let uval = ref 0. and present = ref false in
              for q = 0 to c_len.(jj) - 1 do
                if c_idx.(jj).(q) = pr then begin
                  uval := c_val.(jj).(q);
                  present := true
                end
              done;
              if !present then begin
                ui.(!nu) <- jj;
                uv.(!nu) <- !uval;
                incr nu;
                (* column jj := column jj - l * uval, dropping row pr *)
                let npat = ref 0 in
                for q = 0 to c_len.(jj) - 1 do
                  let i = c_idx.(jj).(q) in
                  if i <> pr then begin
                    wval.(i) <- c_val.(jj).(q);
                    wmark.(i) <- true;
                    wpat.(!npat) <- i;
                    incr npat
                  end
                done;
                let u = !uval in
                for q = 0 to nl - 1 do
                  let i = li.(q) in
                  let delta = -.(lv.(q) *. u) in
                  if wmark.(i) then wval.(i) <- wval.(i) +. delta
                  else begin
                    wval.(i) <- delta;
                    wmark.(i) <- true;
                    wpat.(!npat) <- i;
                    incr npat;
                    rowcnt.(i) <- rowcnt.(i) + 1;
                    rpush i jj
                  end
                done;
                let nlen = ref 0 in
                for q = 0 to !npat - 1 do
                  if wval.(wpat.(q)) <> 0. then incr nlen
                done;
                let gi = Array.make !nlen 0 and gv = Array.make !nlen 0. in
                let p2 = ref 0 in
                for q = 0 to !npat - 1 do
                  let i = wpat.(q) in
                  if wval.(i) <> 0. then begin
                    gi.(!p2) <- i;
                    gv.(!p2) <- wval.(i);
                    incr p2
                  end
                  else rowcnt.(i) <- rowcnt.(i) - 1;
                  wmark.(i) <- false;
                  wval.(i) <- 0.
                done;
                c_idx.(jj) <- gi;
                c_val.(jj) <- gv;
                owned.(jj) <- true;
                relink jj !nlen
              end
            end
        done;
        urow_idx.(k) <- Array.sub ui 0 !nu;
        urow_val.(k) <- Array.sub uv 0 !nu;
        rowcnt.(pr) <- 0;
        r_len.(pr) <- 0
      done
    with
    | exception Singular -> None
    | () ->
      (* Remap stored indices into pivot-order space: L rows through the
         row permutation, U columns through the column permutation.  All
         remapped indices are > k (rows/columns still active at step k
         are eliminated later), which is what the solves rely on. *)
      let rowinv = Array.make m 0 and colinv = Array.make m 0 in
      for k = 0 to m - 1 do
        rowinv.(rowperm.(k)) <- k;
        colinv.(colperm.(k)) <- k
      done;
      let total = ref m in
      for k = 0 to m - 1 do
        let li = lcol_idx.(k) in
        for e = 0 to Array.length li - 1 do
          li.(e) <- rowinv.(li.(e))
        done;
        let ui = urow_idx.(k) in
        for e = 0 to Array.length ui - 1 do
          ui.(e) <- colinv.(ui.(e))
        done;
        total := !total + Array.length li + Array.length ui
      done;
      Some
        {
          m;
          lcol_idx;
          lcol_val;
          urow_idx;
          urow_val;
          upiv;
          rowperm;
          colperm;
          nnz = !total;
        }
  end

(* Solve B w = b:  P B Q = L U, so L U (Qᵀw) = P b.  Forward scatter
   through L skips zero positions — a sparse right-hand side touches only
   its reach, Gilbert–Peierls style — then a backward gather through U. *)
let ftran t ~work (b : Vec.t) =
  let m = t.m in
  let y : Vec.t = work in
  for k = 0 to m - 1 do
    y.{k} <- b.{t.rowperm.(k)}
  done;
  for k = 0 to m - 1 do
    let yk = y.{k} in
    if yk <> 0. then begin
      let li = t.lcol_idx.(k) and lv = t.lcol_val.(k) in
      for e = 0 to Array.length li - 1 do
        y.{li.(e)} <- y.{li.(e)} -. (lv.(e) *. yk)
      done
    end
  done;
  for k = m - 1 downto 0 do
    let ui = t.urow_idx.(k) and uv = t.urow_val.(k) in
    let acc = ref y.{k} in
    for e = 0 to Array.length ui - 1 do
      acc := !acc -. (uv.(e) *. y.{ui.(e)})
    done;
    y.{k} <- !acc /. t.upiv.(k)
  done;
  for k = 0 to m - 1 do
    b.{t.colperm.(k)} <- y.{k}
  done

(* Solve Bᵀ v = u:  Uᵀ Lᵀ (P v) = Qᵀ u.  Forward scatter through Uᵀ
   (zero-skipping, so a near-unit right-hand side stays sparse), backward
   gather through Lᵀ. *)
let btran t ~work (u : Vec.t) =
  let m = t.m in
  let y : Vec.t = work in
  for k = 0 to m - 1 do
    y.{k} <- u.{t.colperm.(k)}
  done;
  for k = 0 to m - 1 do
    let yk = y.{k} /. t.upiv.(k) in
    y.{k} <- yk;
    if yk <> 0. then begin
      let ui = t.urow_idx.(k) and uv = t.urow_val.(k) in
      for e = 0 to Array.length ui - 1 do
        y.{ui.(e)} <- y.{ui.(e)} -. (uv.(e) *. yk)
      done
    end
  done;
  for k = m - 1 downto 0 do
    let li = t.lcol_idx.(k) and lv = t.lcol_val.(k) in
    let acc = ref y.{k} in
    for e = 0 to Array.length li - 1 do
      acc := !acc -. (lv.(e) *. y.{li.(e)})
    done;
    y.{k} <- !acc
  done;
  for k = 0 to m - 1 do
    u.{t.rowperm.(k)} <- y.{k}
  done
