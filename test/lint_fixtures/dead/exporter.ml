let used = 1
let only_here = 2
let unused = only_here + 1
let suppressed = 4

module Inner = struct
  let deep_used = 5
  let deep_unused = 6
end
