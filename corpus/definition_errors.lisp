; The text of each admission error for a malformed definition or
; stobj-let, after a few forms that must pass: a bare-symbol :STOBJS
; declaration, and DO loops whose PROGN ends in a constant, which falls
; through to the next iteration.  `run` stops at the first error;
; `diff` skips each error that both modes share, so it prints them all.

(defstobj st fld)
(defstobj kid a)
(defstobj top (tbl :type (stobj-table)))

(defun keep (st) (declare (xargs :stobjs st)) st)
(keep st)
(loop$ with i = 3 with n = 0
       do (if (zp i)
              (return n)
            (progn (setq n (+ n i)) (setq i (1- i)) 7)))
(loop$ with i = 2 with acc = nil
       do (if (zp i)
              (return acc)
            (progn (setq acc (cons i acc)) (setq i (1- i)) :next)))

; defun and declare
(defun f (x))
(defun g (x) (declare (xargs :stobjs (nosuch))) x)
(defun g (x) (declare (xargs :stobjs (st))) x)
(defun g (x) (declare 5) x)
(defun g (x) (declare (xargs :guard)) x)
(defun g (x) (declare (xargs guard t)) x)
(defun g (x) (declare (xargs :stobjs (1))) x)

; defstobj
(defstobj 5 a)
(defstobj s2 (5))
(defstobj s2 (b :type))
(defstobj s2 (b :type (foo)))

; stobj-let
(stobj-let ((kid (tbl-get 'kid top (create-kid)))) (kid) kid)
(stobj-let ((kid)) (kid) kid top)
(stobj-let ((kid (tbl-get 'kid top (create-kid)))) () kid top)
(stobj-let ((kid (tbl-get 'kid top (create-kid)))) (v v) (mv 1 2) top)
(stobj-let ((kid (tbl-get kid top (create-kid)))) (kid) kid top)

; a DO-body statement
(loop$ with i = 0 with j = 0 do (mv-setq (i j)))
