; APPLY$ on each kind of target.  It calls a builtin, a defun, a
; constrained function through its attachment, a quoted lambda, and a
; function named by a variable.  Then the text of each call that passes
; a stobj or multiple values through APPLY$.  `run` stops at the first
; error; `diff` skips each error that both modes share, so it prints
; them all.

(defstobj st fld)

(defun sq (x) (* x x))
(defun two () (mv 1 2))
(defun val (st) (declare (xargs :stobjs st)) (fld st))

(encapsulate
  (((scale *) => *))
  (defthm scale-is-natural (natp (scale x))))
(defun my-scale (x) (* 3 (nfix x)))
(defattach scale my-scale)

(apply$ 'car '((1 2)))
(apply$ '+ '(1 2 3))
(apply$ 'sq '(7))
(apply$ 'scale '(5))
(apply$ '(lambda (x y) (cons y x)) '(1 2))
(let ((f 'car)) (apply$ f '((1 2))))

; a target that returns multiple values, or takes a stobj
(apply$ 'two nil)
(apply$ 'val '(5))
(apply$ 'val '())
(apply$ 'report-completion-or-error-and-return '(a 5))
(apply$ '(lambda (x) (mv x x)) '(1))
(let ((x (apply$ 'two nil))) x)
(if (apply$ 'two nil) 1 2)
(loop$ with x = (apply$ 'two nil) do :measure 0 (return x))
