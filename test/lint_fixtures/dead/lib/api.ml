let run = 1
let test_view = 2
