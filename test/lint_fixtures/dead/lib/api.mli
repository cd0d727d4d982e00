val run : int
val test_view : int
