; Every kind of stobj write on one stobj with a scalar field and a
; stobj-table field: UPDATE-CNT, TBL-REM, TBL-CLEAR and the stobj-let
; write-back of PUT-KID, before and after the clear, read back with
; TBL-BOUNDP and TBL-COUNT.  The logical path copies TOP on each write
; and the native path writes it in place; both must print the same
; values and end with the same bank.  The last form fails: a table key
; must be a symbol.

(defstobj kid val)

(defstobj top cnt (tbl :type (stobj-table)))

(defun put-kid (x top)
  (declare (xargs :stobjs (top)))
  (stobj-let ((kid (tbl-get 'kid top (create-kid))))
             (kid)
             (update-val x kid)
             top))

(update-cnt 7 top)
(put-kid 1 top)
(tbl-boundp 'kid top)
(tbl-rem 'kid top)
(tbl-count top)
(put-kid 2 top)
(tbl-clear top)
(tbl-count top)
(put-kid 3 top)
(tbl-boundp 'kid top)
(tbl-rem 3 top)
