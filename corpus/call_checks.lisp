; The text of each error that admission gives a malformed IF or QUOTE,
; a dotted call, a call with the wrong number of arguments, a stobj-let
; operation outside stobj-let and a stobj in the wrong slot, after a few
; forms that must pass.  Admission checks each of these once, so the
; evaluator runs an admitted call without testing it again.  Last come
; the errors that only a run can find: an APPLY$ of a symbol, and a
; constrained function that has no attachment.  `run` stops at the
; first error; `diff` skips each error that both modes share, so it
; prints them all.

(defstobj st fld)
(defstobj kid a)
(defstobj top (tbl :type (stobj-table)))

(defun sq (x) (* x x))
(encapsulate
  (((scale *) => *))
  (defthm scale-is-natural (natp (scale x))))
(defun my-scale (x) (* 3 (nfix x)))
(defattach scale my-scale)
(encapsulate
  (((gauge *) => *))
  (defthm gauge-is-natural (natp (gauge x))))

(if 1 2)
(if nil 2)
(quote (a . b))
(sq (car '(3 . 4)))
(update-fld (+ 1 2) st)
(fld st)
(scale 5)

; IF and QUOTE at the top level
(if 1)
(if 1 2 3 4)
(if 1 2 . 3)
(quote a . b)

; IF and QUOTE in a defun body
(defun bad-if1 (x) (if x))
(defun bad-if4 (x) (if x 2 3 4))
(defun bad-ifdot (x) (if x 2 . 3))
(defun bad-quote (x) (cons x (quote a . b)))

; IF and QUOTE in a DO body, as a statement and inside an expression,
; and a dotted and a wrong-arity call there
(loop$ with i = 0 do (if i))
(loop$ with i = 0 do (if i (return 1) (return 2) (return 3)))
(loop$ with i = 0 do (if i (return 1) . 3))
(loop$ with i = 0 do :measure 0 (return (if i)))
(loop$ with i = 0 do :measure 0 (return (if i 2 3 4)))
(loop$ with i = 0 do :measure 0 (return (if i 2 . 3)))
(loop$ with i = 0 do :measure 0 (return (quote a . b)))
(loop$ with i = 0 do :measure 0 (return (car . i)))
(loop$ with i = 0 do :measure 0 (return (sq i i)))

; IF and QUOTE in an APPLY$ lambda body, and a wrong-arity call there
(apply$ '(lambda (x) (if x)) '(1))
(apply$ '(lambda (x) (if x 2 3 4)) '(1))
(apply$ '(lambda (x) (if x 2 . 3)) '(1))
(apply$ '(lambda (x) (quote a . b)) '(1))
(apply$ '(lambda (x) (sq x x)) '(1))

; dotted calls
(car . 1)
(+ 1 . 2)
(sq . 3)
(sq 1 . 2)
(defun dotted (x) (sq x . 2))

; calls with the wrong number of arguments
(car 1 2)
(- )
(cons 1)
(sq)
(sq 1 2)
(scale 1 2)
(fld)
(fld st st)
(update-fld 1)
(tbl-count)
(defun short (x) (sq))
(defun self-short (x) (if (zp x) 0 (self-short)))

; stobj-let operations outside stobj-let
(tbl-get 'k top (create-kid))
(tbl-put 'k kid top)
(create-kid)
(defun peek (top) (declare (xargs :stobjs top)) (tbl-get 'k top 0))

; a stobj in the wrong slot
(sq st)
(fld kid)
(fld 5)
(update-fld st st)
(report-completion-or-error-and-return 1 2)
(defun wrong-slot (st) (declare (xargs :stobjs st)) (a st))

; errors that only a run can find
(apply$ 'car '(1 2))
(apply$ 'nosuch nil)
(gauge 5)
