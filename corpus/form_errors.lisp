; The text of each error for a malformed form, in a DO loop and outside
; one, after a few LET* forms that must pass.  LET* binds in order, so a
; later binding sees an earlier one, may shadow it, and is not seen by
; the right-hand sides before it.  `run` stops at the first error;
; `diff` skips each error that both modes share, so it prints them all.

(defstobj st fld)

(let* ((x 1) (x (+ x 1))) x)
(let ((b 10)) (let* ((a b) (b 1)) (+ a b)))
(let* ((a 1) (b (+ a 1)) (c (* b 3))) (cons a (cons b c)))
(loop$ with i = 3 with acc = nil
       do (if (zp i)
              (return acc)
            (let* ((j (* i i)) (k (+ j 1)))
              (progn (setq acc (cons k acc)) (setq i (1- i))))))

; the loop$ parser
(loop$ with 3 = 0 do (return 0))
(loop$ with i = 0 do :values (st st) (return (mv st st)))
(loop$ with i = 5 with j = 5 do (progn (setq i (1- i)) (setq j (1- j))))

; DO-body statements
(loop$ with i = 0 do (foo i))
(loop$ with i = 0 do (setq i))
(loop$ with i = 0 with j = 0 do (mv-setq (i) (mv 1 2)))
(loop$ with i = 3 do (let ((i 0)) (return i)))

; special forms outside loops
(if 1)
(let ((x 1) (x 2)) x)
(let* ((x 1) . 2) x)
(mv-let (a) (mv 1 2) a)
