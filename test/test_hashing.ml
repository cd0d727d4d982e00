(* SHA-1 against RFC 3174 / FIPS 180 test vectors, and the 160-bit ring key
   arithmetic Chord depends on. *)

module Sha1 = Hashing.Sha1
module Key = Hashing.Key

let sha1_vectors () =
  let check input expected =
    Alcotest.(check string) input expected (Sha1.to_hex (Sha1.digest_string input))
  in
  check "" "da39a3ee5e6b4b0d3255bfef95601890afd80709";
  check "abc" "a9993e364706816aba3e25717850c26c9cd0d89d";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1";
  check "The quick brown fox jumps over the lazy dog"
    "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"

let sha1_million_a () =
  (* FIPS 180-1 vector: one million repetitions of "a". *)
  let input = String.make 1_000_000 'a' in
  Alcotest.(check string) "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.to_hex (Sha1.digest_string input))

let sha1_block_boundaries () =
  (* Lengths around the 64-byte block and 55/56-byte padding boundaries must
     all round-trip through hex without error and be distinct. *)
  let digests =
    List.map
      (fun len -> Sha1.to_hex (Sha1.digest_string (String.make len 'x')))
      [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]
  in
  let distinct = List.sort_uniq String.compare digests in
  Alcotest.(check int) "all boundary digests distinct" (List.length digests)
    (List.length distinct)

(* The digests of [String.make len 'x'] for every length from 0 to 130:
   one- and two-block messages, each side of the 55/56-byte padding
   split and of the 64- and 128-byte block edges. *)
let x_digests =
  [|
    "da39a3ee5e6b4b0d3255bfef95601890afd80709"; "11f6ad8ec52a2984abaafd7c3b516503785c2072";
    "dd7b7b74ea160e049dd128478e074ce47254bde8"; "b60d121b438a380c343d5ec3c2037564b82ffef3";
    "4ad583af22c2e7d40c1c916b2920299155a46464"; "9addbf544119efa4a64223b649750a510f0d463f";
    "018f4d7f06cb8626e1756452581373e05ae41c56"; "2db6d21d365f544f7ca3bcfb443ac96898a7a069";
    "bcf22dfc6fb76b7366b1f1675baf2332a0e6a7ce"; "70374248fd7129088fef42b8f568443f6dce3a48";
    "ff9ee043d85595eb255c05dfe32ece02a53efbb2"; "c2b6ff6ac90ae4c7ba8118bf82133b587f6844d0";
    "49901d945ad6da0f0af47691f305daf994d9d2c9"; "35bf59a8608e6056fee877d137c05081fc98eb11";
    "33da8d0e8af2efc260f01d8e5edfcc5c5aba44ad"; "f29546c9b9b5056412af91317f83158a4f5f06d4";
    "a7a7c2e911a47b967d34b5a8807c040e9d167815"; "3f0155e75563ab3adc0505000a86da5baa207d1f";
    "38e57225a610ee2a597024ae2b31867844938b26"; "dce1f02ca7cc4b63ac43008b7a3ce96e702a0c24";
    "d02e53411e8cb4cd709778f173f7bc9a3455f8ed"; "67f47aa04705d775ee067d6db7d3d1196802990f";
    "22d980c81eb878c4a7731e77f2633831979d51f6"; "2acc6756e4aa393274ae109f91c4ecdf5153604d";
    "f7228ea6b178df32077280927f544cf46831a5e7"; "05711f1306adf20998dbdddbf0962f7eef6325f1";
    "d7b54da3c1ed6623cdaaa638fd7d7fb6099c65fb"; "6fc065b11399e0d9523527aa593107f9301ec1f5";
    "a99d79c8a2946d7c89c67521a13a917928ca1b58"; "ede3079249cce9fa824a8bb1d95447c6ebcea620";
    "5da451e73b2773e53c1d46d6e45fd897838621d1"; "a700b9df6265e0e1a44fef607bf7319f702ed7e9";
    "680cb4c5ec5d1bbfa592081dcc915e15b3cd9d3e"; "60bbb3c88636ba22efaea7c521d6f4ca17c62342";
    "94f5615ced9f0626ed6f7effcf12bb883632b147"; "a5804110fb8af48579cb1ddc951b802c5dfd82ce";
    "b43c42666504175b55714a8404ab1c30b1ab88c8"; "de9fb0ece0aaa283ed2d48399152a1329898848b";
    "4dcc4124122dc4a033fbdf28ca174fecb8dc8210"; "931293b3347b83ce52911c47277a612d7d92f99a";
    "47372a7b27569d25063df5cbbf7606f615a8ec2a"; "9dc0da3613af850c5a018b0a88a5626fb8888e4e";
    "30edcc340339d64cf63263a983283272c5cfc6d2"; "1fb1c5bf6f209b731cab1656dc2c1901ac3ddca1";
    "0b8bb2499ed501bb7fd61ffc4192c829242209d1"; "fbddf2383576fd1e5a416f44852fb66b26771e09";
    "65b044cc017d6d9499628d20bde3d6f2b30aff3d"; "f89d4936f190d205f17b588e0d61dc9e085fade6";
    "9ba3571eafaf6619487a5b53a2e98096669dbfc9"; "79bede281ed797b1b8ec4ddd20ca5456d6e59b3a";
    "c3f0ee5d874bc080fa3b88bfb21d3cc888365bd0"; "c83a7fbb4caf846b22c9fcf132f0f16603f46de4";
    "e79c680685886f80ab385a40ff182baf1c28c1a9"; "477598ced08c849d7d894afcf48e9c2ad2b3842d";
    "31045e7bb077ff8d188a776b196b980388735dbb"; "cef734ba81a024479e09eb5a75b6ddae62e6abf1";
    "901305367c259952f4e7af8323f480d59f81335b"; "025ecbd5d70f8fb3c5457cd96bab13fda305dc59";
    "1fc8ec1c521db349501a72ad396e44bfade318c2"; "af3526de3ee728ffd84f7381df8c29b09e3a088d";
    "06ced2e070e58c2c4ed9f2b8cb890f0c512ce60d"; "5482c87d17cc9f29b9f5580d168a712708b8ea98";
    "ff5b5136336035a9f58c21d5da1e2a1d29c67943"; "0ddc4e0cccd9a12850deb5abb0853a4425559fec";
    "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163"; "78c741ddc482e4cdf8c474a0876347a0905b6233";
    "b6a70490805fc2410afe1e58313de63717fb5663"; "40a5698504d8c2dbf707911450f557a30aad7b4c";
    "87ce4c6f0048c287dbfcf288c97f54b619480279"; "a1e3aea3264dee086dc89f1dc9be46c58a8e0f84";
    "bbaad84b42630a80b935ff83a4804512d8ef59f3"; "fd1ee778e79ae344f333264a36514927042c77c2";
    "bf3347ff9e2d85c5a919f5c2172156aae5430d0c"; "8d8b6500aac3b49eabcfd99c1a33328f052ea008";
    "8b7a6ee441ea75ce37570e9dbf63487a50ef8903"; "293e90cf7f5f462c71f0b3f744ee2f32bd1dfaa4";
    "9b2bd4e3c62200fef4b5458a678e6ad2ab21f301"; "b6dcbc852830b7b52f9ed2aea9ee152d8b3134b6";
    "f14dfb37e87489c46e0c920368eeec9ffb32656d"; "361bb29c70636bc27f5d5910b16d192a90e4870f";
    "9a163175721df0c0bcb42cacab1f8b66ae955dcf"; "06f2e33fb50c972f13b8bb23c337ce40de5e14d9";
    "77e4f7de274a29f1c0eb2ee094eff40d5563b9b4"; "7c516a46a37260a6f69b05be44ec8ff3d3baeaf3";
    "f667c790fc8b439e9418e11cffa6c7085140414c"; "309d21ed65c4b079c50e5859babd96349138051b";
    "5a1a4d36a638dc0042964a984310823df83e630e"; "101bfedeb138af3973cb211d87c8daf15c15c7f7";
    "acecf42cb857d98aadd418fcd53d9bf550180693"; "6a317d559671b0f367fb053a4a6e519233fbc0ae";
    "5ab116c451787d23c3917d8a970a8ea2c7a034c7"; "282c5853f3f127073dc8c4936a7ee794f0d15f3b";
    "abd38ea864654f6e9ad937550cfc9f6b03f07951"; "db0b052720f39a8da44fbe45ed4de50e075a2722";
    "5b9394d354ef6539ac0cf1f4dcd68458752f2d23"; "d52eaa3367f4cda0064acf42d5ee05dff11ea6f5";
    "b903034acbc41a185b16c4035b5a0ee4134f47a4"; "b23f87e30118fb65dde5e4dbcfd69752306194bf";
    "43b804304fa2a2fddeaf64dfad76b7d538e34b0b"; "5711f817fca43833f857e0e35a44e1cb71fc20d0";
    "50e483690ec481f4af7f6fb524b2b99eb1716565"; "4dda8f24188521a997ef3e83ea4edb3e1c2aabb4";
    "2268e3574bbec4dc0835024645f6f9f2bd8d8439"; "cfd11a3f75c974ed0e227570bb0883548369be26";
    "d497b92404f6ce32f612dc2e05e354b2e1751367"; "2f51d1f3783e7410c3c5deabf60a36d1bc3153fe";
    "90df5275f77948c045ed58ba4c0386c1c359691d"; "825bb63e1c9b35bcef2a2d7b3b160c3b0410a13b";
    "31a68dfec45392c50e95d9c28085b13a91de58c5"; "99cf06d408916a23d96af54a16d55db629cf77ef";
    "c8aef9fcca9d9bd7654ebbaeb85c2422de07238a"; "ebcb0b3e48c9ef45a6cea955e622bad8c29ff4e7";
    "27fa638e78d8524dae129c782bb9042f0caed9f9"; "bcaa0a9b88b39daeaf734543336f73a36b2e20f7";
    "956a4ea9812940d46745e590ae00897d20c7ad0a"; "6e711980ed204c4fb95418cafd673a7280cceb74";
    "66e58e9626c504bd2208bb51206d354d23c133a7"; "4102d0b82103d2fb1283f0380bf0faed0d3798bb";
    "46e01fe9785dc90804798b79cd399c6e90d1d382"; "4300320394f7ee239bcdce7d3b8bcee173a0cd5c";
    "ceb2821639c4b6dcb10bce0e522ca2e608ce056d"; "f8b9fb92a99638962adc81b9e0270ab9c6dd6c84";
    "73008655654c6462e6217ab3e9217134b51e1d68"; "2fcff189c69b542aa2cf4398bbada78e55d0e115";
    "5b64597f91b364949cc819598442e0631842697a"; "6c7c48731fcde4b222f87d04f0b522eb30c60f85";
    "d1c4e44be298498fa09182acca33baf50b0abb36"; "e463484d274607e1897d4099497cbf2aedcf8206";
    "150fa3fbdc899bd0b8f95a9fb6027f564d953762"; "2699b675922cc84a9b0dfd926eb7f8211c78693d";
    "d140171ce524e232cc2a6bf07cca693c533d73a1";
  |]

let sha1_pinned_lengths () =
  Array.iteri
    (fun len expected ->
      Alcotest.(check string) (Printf.sprintf "%d x" len) expected
        (Sha1.to_hex (Sha1.digest_string (String.make len 'x'))))
    x_digests

let sha1_hex_roundtrip =
  QCheck.Test.make ~name:"Sha1 hex roundtrip" ~count:200 QCheck.string (fun s ->
      let d = Sha1.digest_string s in
      String.equal (Sha1.of_hex (Sha1.to_hex d)) d)

let key_of_int_roundtrip () =
  Alcotest.(check string) "key 1"
    "0000000000000000000000000000000000000001"
    (Key.to_hex (Key.of_int 1));
  Alcotest.(check string) "key 0x1234"
    "0000000000000000000000000000000000001234"
    (Key.to_hex (Key.of_int 0x1234))

let key_succ_wraps () =
  let top = Key.of_hex "ffffffffffffffffffffffffffffffffffffffff" in
  Alcotest.(check bool) "succ of max is zero" true (Key.equal (Key.succ top) Key.zero)

let key_add_pow2 () =
  let k = Key.of_int 1 in
  Alcotest.(check string) "1 + 2^0 = 2"
    "0000000000000000000000000000000000000002"
    (Key.to_hex (Key.add_pow2 k 0));
  Alcotest.(check string) "1 + 2^8 = 257"
    "0000000000000000000000000000000000000101"
    (Key.to_hex (Key.add_pow2 k 8));
  (* 2^159 + 2^159 wraps to 0. *)
  let half = Key.add_pow2 Key.zero 159 in
  Alcotest.(check bool) "2^159 * 2 wraps" true (Key.equal (Key.add_pow2 half 159) Key.zero)

let key_add_pow2_bounds () =
  Alcotest.check_raises "exponent 160 rejected"
    (Invalid_argument "Key.add_pow2: exponent out of range") (fun () ->
      ignore (Key.add_pow2 Key.zero 160))

let key_interval_plain () =
  let k1 = Key.of_int 10 and k5 = Key.of_int 50 and k9 = Key.of_int 90 in
  Alcotest.(check bool) "50 in (10,90)" true (Key.in_interval_oo k5 ~lo:k1 ~hi:k9);
  Alcotest.(check bool) "10 not in (10,90)" false (Key.in_interval_oo k1 ~lo:k1 ~hi:k9);
  Alcotest.(check bool) "90 not in (10,90)" false (Key.in_interval_oo k9 ~lo:k1 ~hi:k9);
  Alcotest.(check bool) "90 in (10,90]" true (Key.in_interval_oc k9 ~lo:k1 ~hi:k9)

let key_interval_wrapping () =
  let k1 = Key.of_int 10 and k9 = Key.of_int 90 in
  let k95 = Key.of_int 95 and k5 = Key.of_int 5 in
  (* The wrapping interval (90, 10) contains 95 and 5 but not 50. *)
  Alcotest.(check bool) "95 in (90,10)" true (Key.in_interval_oo k95 ~lo:k9 ~hi:k1);
  Alcotest.(check bool) "5 in (90,10)" true (Key.in_interval_oo k5 ~lo:k9 ~hi:k1);
  Alcotest.(check bool) "50 not in (90,10)" false
    (Key.in_interval_oo (Key.of_int 50) ~lo:k9 ~hi:k1);
  (* Degenerate interval (k, k): the whole ring minus the point (open) or the
     whole ring (half-open). *)
  Alcotest.(check bool) "(k,k) open excludes k" false (Key.in_interval_oo k1 ~lo:k1 ~hi:k1);
  Alcotest.(check bool) "(k,k) open has others" true (Key.in_interval_oo k9 ~lo:k1 ~hi:k1);
  Alcotest.(check bool) "(k,k] contains k" true (Key.in_interval_oc k1 ~lo:k1 ~hi:k1)

let key_distance () =
  let a = Key.of_int 10 and b = Key.of_int 90 in
  Alcotest.(check string) "distance 10->90"
    (Key.to_hex (Key.of_int 80))
    (Key.to_hex (Key.distance_cw a b));
  (* Distance wrapping through zero: 90 -> 10 is 2^160 - 80. *)
  let wrap = Key.distance_cw b a in
  Alcotest.(check string) "distance 90->10 wraps"
    "ffffffffffffffffffffffffffffffffffffffb0"
    (Key.to_hex wrap)

let arbitrary_key =
  QCheck.make
    ~print:(fun k -> Key.to_hex k)
    (QCheck.Gen.map
       (fun seed -> Key.random (Stdx.Prng.create ~seed:(Int64.of_int seed)))
       QCheck.Gen.int)

let key_interval_oc_trichotomy =
  QCheck.Test.make ~name:"ring trichotomy: k in (a,b] xor k in (b,a]" ~count:500
    (QCheck.triple arbitrary_key arbitrary_key arbitrary_key)
    (fun (k, a, b) ->
      QCheck.assume (not (Key.equal a b));
      let in_ab = Key.in_interval_oc k ~lo:a ~hi:b in
      let in_ba = Key.in_interval_oc k ~lo:b ~hi:a in
      (* Every point other than a and b lies in exactly one of the two arcs. *)
      if Key.equal k a || Key.equal k b then in_ab <> in_ba else in_ab <> in_ba)

let key_distance_inverse =
  QCheck.Test.make ~name:"distance_cw a b + distance_cw b a = 0 (mod ring)" ~count:500
    (QCheck.pair arbitrary_key arbitrary_key)
    (fun (a, b) ->
      QCheck.assume (not (Key.equal a b));
      let d1 = Key.to_float (Key.distance_cw a b) in
      let d2 = Key.to_float (Key.distance_cw b a) in
      let ring = 2.0 ** 160.0 in
      Float.abs ((d1 +. d2) -. ring) /. ring < 1e-9)

(* The Kademlia distance as it used to be computed: render both keys to
   hex, XOR the nibbles, parse the result back.  The reference Key.xor
   must agree with. *)
let hex_xor a b =
  let ha = Key.to_hex a and hb = Key.to_hex b in
  let hex_value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> invalid_arg "hex_xor: bad hex"
  in
  let digits = "0123456789abcdef" in
  Key.of_hex
    (String.init (String.length ha) (fun i -> digits.[hex_value ha.[i] lxor hex_value hb.[i]]))

(* Keys sharing a prefix of random length with a target, so XOR
   comparisons are decided deep in the key, or not at all. *)
let near_keys =
  QCheck.map
    (fun ((target, a, b), (n, m)) ->
      let graft k len =
        let hk = Key.to_hex k in
        Key.of_hex (String.sub (Key.to_hex target) 0 len ^ String.sub hk len (40 - len))
      in
      (target, graft a n, graft b m))
    (QCheck.pair
       (QCheck.triple arbitrary_key arbitrary_key arbitrary_key)
       (QCheck.pair (QCheck.int_range 0 40) (QCheck.int_range 0 40)))

let key_xor_matches_hex =
  QCheck.Test.make ~name:"xor equals the hex nibble xor" ~count:500 near_keys
    (fun (target, a, b) ->
      Key.equal (Key.xor target a) (hex_xor target a)
      && Key.equal (Key.xor a b) (hex_xor a b))

let key_compare_xor_sign =
  QCheck.Test.make ~name:"compare_xor has the sign of comparing xors" ~count:1000 near_keys
    (fun (target, a, b) ->
      Int.compare (Key.compare_xor ~target a b) 0
      = Int.compare (Key.compare (Key.xor target a) (Key.xor target b)) 0)

let key_of_string_spread () =
  (* Hashed keys should spread: among 1000 consecutive strings, the top
     eighth of the ring should hold roughly an eighth of the keys. *)
  let count = ref 0 in
  let threshold = Key.of_hex "e000000000000000000000000000000000000000" in
  for i = 1 to 1_000 do
    let k = Key.of_string (Printf.sprintf "key-%d" i) in
    if Key.compare k threshold >= 0 then incr count
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1000 keys in top eighth" !count)
    true
    (!count > 80 && !count < 170)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "hashing:sha1",
      [
        Alcotest.test_case "RFC 3174 vectors" `Quick sha1_vectors;
        Alcotest.test_case "million 'a'" `Slow sha1_million_a;
        Alcotest.test_case "block boundary lengths" `Quick sha1_block_boundaries;
        Alcotest.test_case "pinned digests, lengths 0-130" `Quick sha1_pinned_lengths;
      ]
      @ qcheck [ sha1_hex_roundtrip ] );
    ( "hashing:key",
      [
        Alcotest.test_case "of_int/to_hex" `Quick key_of_int_roundtrip;
        Alcotest.test_case "succ wraps" `Quick key_succ_wraps;
        Alcotest.test_case "add_pow2" `Quick key_add_pow2;
        Alcotest.test_case "add_pow2 bounds" `Quick key_add_pow2_bounds;
        Alcotest.test_case "plain intervals" `Quick key_interval_plain;
        Alcotest.test_case "wrapping intervals" `Quick key_interval_wrapping;
        Alcotest.test_case "clockwise distance" `Quick key_distance;
        Alcotest.test_case "hashed key spread" `Quick key_of_string_spread;
      ]
      @ qcheck
          [
            key_interval_oc_trichotomy;
            key_distance_inverse;
            key_xor_matches_hex;
            key_compare_xor_sign;
          ] );
  ]
