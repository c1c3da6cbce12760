package location

import (
	"math"
	"testing"

	"greencloud/internal/series"
)

// catalogGolden pins every site of Generate(Options{Count: 40, Seed: 7}) at
// RepresentativeDays 1 and 2, in ID order: the series.Digest of the
// per-epoch Alpha, Beta and PUE rows, then the math.Float64bits of
// SolarCapacityFactor, WindCapacityFactor, AvgPUE and MaxPUE.
var catalogGolden = map[int][][7]uint64{
	1: {
		{0x46ba3803687a4e7f, 0xf2cbd49fec1842d8, 0x0d6384d22e4d9ff0, 0x3fc1300801f5cb09, 0x3fb35c3478a44f02, 0x3ff0fd346dfdcd5b, 0x3ff240f44cf30703},
		{0x9ccabadc385d68fb, 0x32ae602f6abc0739, 0xfeb5b0a10ae8e36e, 0x3fc0b83e335f463d, 0x3fbf624be445ece1, 0x3ff109d8b6893873, 0x3ff286c22166db8b},
		{0xb0460af7d1a97d8f, 0x25da08021207c7d9, 0x1184246020692959, 0x3fbd63aac5321b02, 0x3fc067c632c13e82, 0x3ff0f4cd67072c3a, 0x3ff228b742bff96b},
		{0x35bc2e804eb1dccd, 0x4a3ddf3b1969524a, 0x4dcf06a86b85ce11, 0x3fbde9c5ba8a4706, 0x3fb99526e8f7f72f, 0x3ff135ac26a58993, 0x3ff32cef3a2096c5},
		{0xb11552fb02912ea1, 0xc6f42c65b3f5e5e2, 0xbcbc453a6eb7821f, 0x3fbd8f8b749fa0ac, 0x3fb95420ac8d3e76, 0x3ff0e8a83a4345f1, 0x3ff1e908ba4b01b6},
		{0xbe7c3cd867e8b90f, 0xbcc976b0b60e9036, 0x95288d6bba2ec5c6, 0x3fc03176e845a8da, 0x3fb11a75de8f28a2, 0x3ff0f599f68d5193, 0x3ff21b7e6ec013c6},
		{0xa35caca59a7aed23, 0xcf22e450e2b5f567, 0x5377af720bb9d571, 0x3fbd653d25a4f6bd, 0x3fb6ad645cd4d842, 0x3ff0f7ec8840ec10, 0x3ff233e2705e0db2},
		{0x768e58e354861e7c, 0x73d619c9eded20c1, 0xb603f52e76b78d9f, 0x3fb9f03a6cdfb053, 0x3fb39e9b5b468ae9, 0x3ff0de607e7a17ca, 0x3ff1966e0e40470b},
		{0x86a1e5959632d9e8, 0x607c74e95e69cb86, 0x37e075352d418eef, 0x3fc0799105b5a70a, 0x3fb077c9adba8288, 0x3ff105d2cd2a6b82, 0x3ff24f5fb2bdecec},
		{0x354ece16c04962f9, 0xbc4f8e699e56d417, 0x91c2c3b1374f2922, 0x3fbdee259e2314c3, 0x3fb3531876bd26db, 0x3ff10a6345101548, 0x3ff27cccbb843fab},
		{0xd79271bd8c8ccfec, 0x73415f25c13f619b, 0xfdf74d755c0cca78, 0x3fc2cf8d343a4adb, 0x3fc5e6daecfc07a7, 0x3ff0e52a98f0abcc, 0x3ff1c80eedb85d04},
		{0xf990bb330e626cc8, 0xa7e3090d7eef6070, 0x96f5789712cf0297, 0x3fbdb2c31db30600, 0x3fce3e930045eb31, 0x3ff10275c816aa16, 0x3ff2d06acf0e1f10},
		{0x60b69818687b7621, 0x807fbfb4ee4dc4d5, 0xc6e60d7cca4b9c22, 0x3fbf0a6a9478f90d, 0x3fc031bac48d29e6, 0x3ff1073ba241d3a3, 0x3ff2d4ad32b8a924},
		{0x780bbf09bda42258, 0x9b3848a41a3da07e, 0x72a1fac82a8e56a8, 0x3fbec3af47c68cc7, 0x3fa4ce23f229ef02, 0x3ff0f1f2a16948be, 0x3ff2416810f7fedd},
		{0x98b2e8f1d10d3d5d, 0x58454f8789f84430, 0x07001cd5fd6068cc, 0x3fbff66b02fe432e, 0x3fb5312a6e57bad6, 0x3ff0fcec6ef8bd1f, 0x3ff2a6a6d8d96612},
		{0xb5198cc7b75f0a07, 0x46028033cb18840f, 0xf9299eb72e09d104, 0x3fbe970148a6be27, 0x3fc9771514be998f, 0x3ff10a37413d5a3e, 0x3ff2bcaf1daf1cc0},
		{0x87c8431e597ec89f, 0x6030db5f31cc0533, 0x0d1691ef75aabc9c, 0x3fc125db29af8a25, 0x3fc05d61198cdd15, 0x3ff0fac272303812, 0x3ff282fa2f9744fd},
		{0xf8857c27aec3b951, 0x829fbd5b382673fd, 0xbd5da52d2fbb4bce, 0x3fc05d54b17a820e, 0x3fbc177e920d7cac, 0x3ff116896d0890e0, 0x3ff3362892a4e239},
		{0xe0ce2f6d170d928c, 0x42e4b20d1128c922, 0xa85a8abf6ff640fd, 0x3fbe5d50c3d4e627, 0x3fc06dc24b9ffbb3, 0x3ff0e508b094adf6, 0x3ff1fa35fb3e4da5},
		{0xb0f93bab5e54a086, 0xa1373b0ae359cb9d, 0x28d1ff515fa027c5, 0x3fbe86c7a8851899, 0x3fbb003a3591ae98, 0x3ff0d483daaf7007, 0x3ff1348610af48f6},
		{0xfbbe22590edc9644, 0x5e95e3f02da2581f, 0xc97bfc58fb439d1e, 0x3fb601384c51b35c, 0x3fce83be48769183, 0x3ff0da8353a7a6d5, 0x3ff15cfd8b1e557a},
		{0xf4d7e9fcdc01cf02, 0xb240651d482b9032, 0x19551b817ad20b4f, 0x3fb670c3ab6db52f, 0x3fc1524cab63da4e, 0x3ff0d3957f20c44f, 0x3ff15e4f574049bc},
		{0x873f0419ef48d022, 0xc828f8d4a2028595, 0x0bc68da65a010445, 0x3fb6cfdb25a45db2, 0x3fc9a714fe04e0c1, 0x3ff0e0018ee1a6f0, 0x3ff16c90d20fb40f},
		{0x859b29d448cb32c4, 0xfe6eb8d7c49647b9, 0x6afdaa2029db366b, 0x3fb9bb47a39f7eb6, 0x3fbe0830f1544ce1, 0x3ff0cdbd16232b05, 0x3ff0fad02fb0e3db},
		{0xd8f295dcf9b783fa, 0x16a86cccda7a0e52, 0xb8e0c839075e674a, 0x3fb971e04ba27f71, 0x3fd215695fb3fbbd, 0x3ff0d2de0e165a7e, 0x3ff12af178efbf84},
		{0x549fb11a8cc316dc, 0x7aef2b4450390959, 0x185de00e34f249f7, 0x3fc8bdd3ea7926b7, 0x3fa83343d93e362e, 0x3ff1ca58f573ed8c, 0x3ff4e1f449a0bf40},
		{0xe066950d53ba8d74, 0xc9e16b81ca22af71, 0x6a473dae7a2ce67c, 0x3fc62c972274a399, 0x3f9263db9dc6a8f5, 0x3ff2336cca78268f, 0x3ff5c6aea44e099b},
		{0x1091c63a59450edd, 0x8d174afabae40682, 0x7c90fc294a61e947, 0x3fc8e7f7254a8aea, 0x3fa2a32c5567e329, 0x3ff2078ec9e13104, 0x3ff554fbe78b4ae4},
		{0xe010639be766562e, 0x840547d8bf67df8b, 0x249c0cf58ed5da3f, 0x3fc8080e65c31e53, 0x3fa204e84da78478, 0x3ff1c0ede081ca06, 0x3ff4d72fae4a099e},
		{0x00d53665f3eb6130, 0xe87b3fae29a3efb9, 0x3dbd285aff36c16f, 0x3fc63be7b5ed778c, 0x3fb0b5fd8be691a8, 0x3ff1dc12480d162b, 0x3ff51c59aee906f5},
		{0x862dd3642542aba8, 0x6d818addee6aae52, 0x8ac8ceb01c30500f, 0x3fc7bf60f02cab8b, 0x3f9991e1ea649376, 0x3ff19b7eadeeba2a, 0x3ff4602c1c75e1b2},
		{0xc548c635087de9d0, 0xea81d2bf628d4976, 0x9df4b6c964b81926, 0x3fc611c613c8d688, 0x3fa91fd5c098ee33, 0x3ff1b38eb6f9c276, 0x3ff33cb49c4ea2b7},
		{0x5fec208ba7b79175, 0x38dfc19f1d9cd90b, 0xbe4a1c66ae61139b, 0x3fc4f6dab890d139, 0x3f83e931639b3174, 0x3ff22320fcae2ad9, 0x3ff3ac019bc146d4},
		{0x497f762429b0ef35, 0x82e5f7eaaf6471fc, 0x23852cdb3c183f47, 0x3fc351ce2573f6e5, 0x3fb107296cd1d7a1, 0x3ff17453129ad63a, 0x3ff2b8efa0686011},
		{0x3ee5c2f0a048afa5, 0x82dc54218f0a76f5, 0x344650c76788d8c3, 0x3fc0942070cf1b22, 0x3fa6e950a08f34b9, 0x3ff1e0ac910c2161, 0x3ff373ff04d6e1a1},
		{0x0256dc2967817b9b, 0x96fc6e930fcb151b, 0x32a07ca7bf5b7a7a, 0x3fc2503af2c10168, 0x3fc073374c33df51, 0x3ff1f45794632278, 0x3ff37c01737c95cd},
		{0x27cbb90af967e6cc, 0x460ed2c54fcc4eff, 0x901568cd0ebe3701, 0x3fb6869e9b902416, 0x3fdd6929a2974a02, 0x3ff0cccccccccd69, 0x3ff0cccccccccccd},
		{0x529dc2ddefd7dc54, 0xa49b322728e12803, 0x6bbef6848903a770, 0x3fc252679867b7c2, 0x3fe437f05d32e630, 0x3ff0ccf58874c0d9, 0x3ff0ea7149164c5d},
		{0xea3c0ee3ff3558e5, 0xb2fb03f9b8ecfbb5, 0x6995c0053423f69b, 0x3fbac5ee3ee4a7a3, 0x3fe112625a387280, 0x3ff0ce0cf4aaebad, 0x3ff0fbd0544a7f7d},
		{0xccbdd6078eedfed8, 0x1c24cb6e548df338, 0x901568cd0ebe3701, 0x3fb8eee68fd9f05c, 0x3fc0be54d21dbc08, 0x3ff0cccccccccd69, 0x3ff0cccccccccccd},
	},
	2: {
		{0x6a3f33a9125d9a8f, 0xa11aa39a29aba027, 0xfba8789b8824a8c0, 0x3fc1300801f5cb09, 0x3fb35c3478a44f02, 0x3ff0fd346dfdcd5b, 0x3ff240f44cf30703},
		{0x8b5efb8a6a13aa87, 0xcbc159f32645a17e, 0xdadfb559f9d4129a, 0x3fc0b83e335f463d, 0x3fbf624be445ece1, 0x3ff109d8b6893873, 0x3ff286c22166db8b},
		{0xd68cfd9425adc261, 0xcb9a07509c2cd562, 0xb35df9a772f4de2a, 0x3fbd63aac5321b02, 0x3fc067c632c13e82, 0x3ff0f4cd67072c3a, 0x3ff228b742bff96b},
		{0xc6b7236aabf0e1a7, 0x9d9b40d57295c1a1, 0x5685616aa99e9eba, 0x3fbde9c5ba8a4706, 0x3fb99526e8f7f72f, 0x3ff135ac26a58993, 0x3ff32cef3a2096c5},
		{0x1acc893a186195d9, 0x280a68516324295f, 0xf8dc5c9191d6f0a3, 0x3fbd8f8b749fa0ac, 0x3fb95420ac8d3e76, 0x3ff0e8a83a4345f1, 0x3ff1e908ba4b01b6},
		{0x62b8dcec15a2b585, 0x7543746f4e756126, 0xb1c2ff367308fa4e, 0x3fc03176e845a8da, 0x3fb11a75de8f28a2, 0x3ff0f599f68d5193, 0x3ff21b7e6ec013c6},
		{0x7bb7edf921b81a38, 0x21d0701b5f3f7ee1, 0xa874ffd2222e99e1, 0x3fbd653d25a4f6bd, 0x3fb6ad645cd4d842, 0x3ff0f7ec8840ec10, 0x3ff233e2705e0db2},
		{0x6bf2288a89d841c9, 0x0451a0dc6116a949, 0x83cd30cf33514dcc, 0x3fb9f03a6cdfb053, 0x3fb39e9b5b468ae9, 0x3ff0de607e7a17ca, 0x3ff1966e0e40470b},
		{0x7fe2ccaf1165f614, 0x5e7272d3bde39068, 0x1cf3741e794f5952, 0x3fc0799105b5a70a, 0x3fb077c9adba8288, 0x3ff105d2cd2a6b82, 0x3ff24f5fb2bdecec},
		{0xa93ba1cc9cb5d5a8, 0x672eb82fecb88518, 0xd7b4a2b6073f20d7, 0x3fbdee259e2314c3, 0x3fb3531876bd26db, 0x3ff10a6345101548, 0x3ff27cccbb843fab},
		{0x9fdc1f07b10b9594, 0x7e437893bec7aae2, 0xe99b7e5adaa31549, 0x3fc2cf8d343a4adb, 0x3fc5e6daecfc07a7, 0x3ff0e52a98f0abcc, 0x3ff1c80eedb85d04},
		{0xa28338ddb19971cc, 0xe3618461b6e345f5, 0x8fa32ec204fb401a, 0x3fbdb2c31db30600, 0x3fce3e930045eb31, 0x3ff10275c816aa16, 0x3ff2d06acf0e1f10},
		{0xddc4d64d9997a015, 0x10d2f41357337862, 0x9d064bc3ba2a2efb, 0x3fbf0a6a9478f90d, 0x3fc031bac48d29e6, 0x3ff1073ba241d3a3, 0x3ff2d4ad32b8a924},
		{0x9da492ca21fde6be, 0x086c06e54b65127d, 0x1af1a94642be860a, 0x3fbec3af47c68cc7, 0x3fa4ce23f229ef02, 0x3ff0f1f2a16948be, 0x3ff2416810f7fedd},
		{0x2e7ec6268c95fa50, 0xbe96842da387a9ea, 0x543ebcfc5cb36082, 0x3fbff66b02fe432e, 0x3fb5312a6e57bad6, 0x3ff0fcec6ef8bd1f, 0x3ff2a6a6d8d96612},
		{0xb4f73b8375dc3fef, 0x405b5f5aa97db2a0, 0x01b1a369e6c85bf9, 0x3fbe970148a6be27, 0x3fc9771514be998f, 0x3ff10a37413d5a3e, 0x3ff2bcaf1daf1cc0},
		{0xb26f1e8fe06f11b5, 0xdccb38127629c697, 0xa45621ce48c1aab6, 0x3fc125db29af8a25, 0x3fc05d61198cdd15, 0x3ff0fac272303812, 0x3ff282fa2f9744fd},
		{0x58a24b6627e05ab8, 0xbb85019ad72cdabe, 0xeff1eb08b35d7f43, 0x3fc05d54b17a820e, 0x3fbc177e920d7cac, 0x3ff116896d0890e0, 0x3ff3362892a4e239},
		{0x16ab147608338120, 0x5a2f80c6d5cb26b9, 0xcd53759db90e1fb1, 0x3fbe5d50c3d4e627, 0x3fc06dc24b9ffbb3, 0x3ff0e508b094adf6, 0x3ff1fa35fb3e4da5},
		{0xc2c91fc76edcf4ef, 0x2962d8c483ed236b, 0x5f57dccfa7d0ac20, 0x3fbe86c7a8851899, 0x3fbb003a3591ae98, 0x3ff0d483daaf7007, 0x3ff1348610af48f6},
		{0x02271358de13763b, 0xf50d72c838080c5d, 0x13fe12446892d4e7, 0x3fb601384c51b35c, 0x3fce83be48769183, 0x3ff0da8353a7a6d5, 0x3ff15cfd8b1e557a},
		{0x2583021b14302a72, 0x55ac5128c748f836, 0xf694c10327fdf045, 0x3fb670c3ab6db52f, 0x3fc1524cab63da4e, 0x3ff0d3957f20c44f, 0x3ff15e4f574049bc},
		{0x05bdb7978ac718aa, 0xdfefca6b58811c56, 0x3e716e1504e1ec76, 0x3fb6cfdb25a45db2, 0x3fc9a714fe04e0c1, 0x3ff0e0018ee1a6f0, 0x3ff16c90d20fb40f},
		{0xbaaf83b85d425b14, 0x280c9e528a4e9cda, 0x592b5b1e74802d18, 0x3fb9bb47a39f7eb6, 0x3fbe0830f1544ce1, 0x3ff0cdbd16232b05, 0x3ff0fad02fb0e3db},
		{0xc2c16bcd1f614a41, 0xaa92a8cbd050aff0, 0x9b4ab235d8ad318c, 0x3fb971e04ba27f71, 0x3fd215695fb3fbbd, 0x3ff0d2de0e165a7e, 0x3ff12af178efbf84},
		{0x75a75d439925ed08, 0x2374ccbb51c42111, 0xba8136c009482bc6, 0x3fc8bdd3ea7926b7, 0x3fa83343d93e362e, 0x3ff1ca58f573ed8c, 0x3ff4e1f449a0bf40},
		{0xe4a2940967fba0ff, 0xcabc2cf7d2c18083, 0xb45a92f47fc5068b, 0x3fc62c972274a399, 0x3f9263db9dc6a8f5, 0x3ff2336cca78268f, 0x3ff5c6aea44e099b},
		{0x4e3629a3ae405ffa, 0xe7ee2c32dc647b27, 0x4522a40d820771d6, 0x3fc8e7f7254a8aea, 0x3fa2a32c5567e329, 0x3ff2078ec9e13104, 0x3ff554fbe78b4ae4},
		{0x10852fa98c4122c6, 0x2e5fc7752e4177f0, 0xb040313a72e51a3b, 0x3fc8080e65c31e53, 0x3fa204e84da78478, 0x3ff1c0ede081ca06, 0x3ff4d72fae4a099e},
		{0x9a63b89fafd412f6, 0x363d263dbc116880, 0x866e4c7ad259c30e, 0x3fc63be7b5ed778c, 0x3fb0b5fd8be691a8, 0x3ff1dc12480d162b, 0x3ff51c59aee906f5},
		{0xf370ca558237243d, 0xcb93791ef0f36ba9, 0xdda45fa3fb1d2a11, 0x3fc7bf60f02cab8b, 0x3f9991e1ea649376, 0x3ff19b7eadeeba2a, 0x3ff4602c1c75e1b2},
		{0x8bc06df39cbdfeae, 0x1bf7d7ba6fabd709, 0x5ac0bc6bf1c11af6, 0x3fc611c613c8d688, 0x3fa91fd5c098ee33, 0x3ff1b38eb6f9c276, 0x3ff33cb49c4ea2b7},
		{0xa68f7ad26d266aa8, 0x23bbcda1a181d6a1, 0x58f103580854a59e, 0x3fc4f6dab890d139, 0x3f83e931639b3174, 0x3ff22320fcae2ad9, 0x3ff3ac019bc146d4},
		{0xeea3494997806d87, 0x0708e3b6ab4d08e8, 0x6ed494bf9acfd815, 0x3fc351ce2573f6e5, 0x3fb107296cd1d7a1, 0x3ff17453129ad63a, 0x3ff2b8efa0686011},
		{0x0939b668f7bd5db4, 0x1afdf5502fe74d36, 0xa1774868ef382b11, 0x3fc0942070cf1b22, 0x3fa6e950a08f34b9, 0x3ff1e0ac910c2161, 0x3ff373ff04d6e1a1},
		{0xeafbdb00790694ef, 0x5f58c8d06099297a, 0xb356570ce65e565f, 0x3fc2503af2c10168, 0x3fc073374c33df51, 0x3ff1f45794632278, 0x3ff37c01737c95cd},
		{0x18553cb051b4d40d, 0xc0b049e68896aaac, 0xa41479783f7207b5, 0x3fb6869e9b902416, 0x3fdd6929a2974a02, 0x3ff0cccccccccd69, 0x3ff0cccccccccccd},
		{0x28d7a608fae60eab, 0x9632306f3c3bbe34, 0x770287a8ac02b46b, 0x3fc252679867b7c2, 0x3fe437f05d32e630, 0x3ff0ccf58874c0d9, 0x3ff0ea7149164c5d},
		{0x8d3fad3cd6d1af08, 0x081b1e3c946173aa, 0x60fc2ae1b1a7a132, 0x3fbac5ee3ee4a7a3, 0x3fe112625a387280, 0x3ff0ce0cf4aaebad, 0x3ff0fbd0544a7f7d},
		{0x67b8bfaea757f24f, 0xea735ef35e08ba3f, 0xa41479783f7207b5, 0x3fb8eee68fd9f05c, 0x3fc0be54d21dbc08, 0x3ff0cccccccccd69, 0x3ff0cccccccccccd},
	},
}

// siteScalarGolden pins the scalar fields of every site of
// Generate(Options{Count: 40, Seed: 7}), in ID order: the name,
// UTCOffsetHours, then the bits of
// LandPriceUSDPerM2, GridPriceUSDPerKWh, DistPowerKm, DistNetworkKm and
// NearestPlantKW.  None of them depends on the representative-day count.
// The digests in catalogGolden cannot see a reordered draw from the
// catalog RNG that leaves the weather traces alone; these can.  They were
// recorded from the serial, one-site-at-a-time generator, before catalog
// generation was split into a serial draw pass and a parallel derive pass.
var siteScalarGolden = []struct {
	name   string
	offset int
	econ   [5]uint64
}{
	{"temperate-0001", 15, [5]uint64{0x40748a79d8fc59fe, 0x3fbf582b8c2e6928, 0x402ddb328773b5e3, 0x401d46a9c5db9f6a, 0x4135b749c85df2f0}},
	{"temperate-0002", 7, [5]uint64{0x406d97da8ff68d68, 0x3fa14644a54c6b2c, 0x4042d3f6adba91a8, 0x4011b58e619b2fd9, 0x413d4b5c8cbdb616}},
	{"temperate-0003", 19, [5]uint64{0x40697f98c0695e65, 0x3fbace9b0a321909, 0x40519f9550aeb6a5, 0x3ff78fc5ce83b58b, 0x4141fe6196bd2c66}},
	{"temperate-0004", 6, [5]uint64{0x407820ca374771b9, 0x3fb8e9575e384cad, 0x40218b5d1dc755aa, 0x404bd3a98637a8bf, 0x411c88a54a0ac1ec}},
	{"temperate-0005", 1, [5]uint64{0x4076d6a9b39e65f3, 0x3fbf387b2274652d, 0x403df23cc1f737de, 0x4021fb085b487e22, 0x41351e1aba0194c4}},
	{"temperate-0006", 6, [5]uint64{0x40612463a3a83046, 0x3fb66b2f6cc36ae1, 0x4023714d34c135a3, 0x4041d80f1b60a48d, 0x412c9fab0af1df93}},
	{"temperate-0007", 23, [5]uint64{0x4072042567fa6190, 0x3fbec23500233a39, 0x403427e03a6d9f51, 0x4026110e5762a7ac, 0x4126850cc544da9a}},
	{"temperate-0008", 18, [5]uint64{0x405a4342b0413a6e, 0x3fbaa3971145eda4, 0x403f67adfb4344fe, 0x4007be62ab52a8f8, 0x41212fe8f8eb933e}},
	{"temperate-0009", 8, [5]uint64{0x4000000000000000, 0x3fbbd4b0660a2c5d, 0x403727746beb5596, 0x3ff0000000000000, 0x413dabf953b36295}},
	{"temperate-0010", 15, [5]uint64{0x40806484a16e61fc, 0x3fbed534ca76337a, 0x4034a5dec7596e92, 0x3ff7333cb8cc408a, 0x4135cbcd690f6742}},
	{"temperate-0011", 9, [5]uint64{0x4000000000000000, 0x3fbd24dee2690131, 0x403efa78af71f152, 0x40401f048e3c5753, 0x4130d9b3763635f0}},
	{"continental-0001", 1, [5]uint64{0x406137abdbe49349, 0x3f9f751f806e0bef, 0x4048736539ef43c0, 0x4037b0ee6ab64893, 0x413def399455db00}},
	{"continental-0002", 10, [5]uint64{0x405eb2ea57ae27b7, 0x3fa8b3168dc3de57, 0x403f4771ae055820, 0x403374d8282c7d7a, 0x41373dcde2a82ce6}},
	{"continental-0003", 12, [5]uint64{0x4049a938cb93b21b, 0x3faf28a91466eb04, 0x4000000000000000, 0x402f45928b0896e2, 0x413e7d845372a711}},
	{"continental-0004", 23, [5]uint64{0x40571a5961ed3c3f, 0x3fb5cf7c1f1e5d4e, 0x40309054668f63a6, 0x400b7ac4eefe7974, 0x4141450815054005}},
	{"continental-0005", 19, [5]uint64{0x405d72bdd74d990b, 0x3fa57057de5196c1, 0x400b3501fb5cc554, 0x40318c95e356350a, 0x412a496e829565b9}},
	{"continental-0006", 12, [5]uint64{0x403a0a5660222d7e, 0x3fb5ca471a3007cb, 0x402f315c4868caf8, 0x400d1392d25ecddd, 0x41356ec69ce7f35a}},
	{"continental-0007", 8, [5]uint64{0x405ab59bbc764500, 0x3faa6aeefe8eb4ce, 0x40290bb0ea206cc1, 0x3ff0000000000000, 0x412ed7d3def51a29}},
	{"continental-0008", 6, [5]uint64{0x4000000000000000, 0x3fb2987b7d40f2ec, 0x4031bfdf50b16038, 0x40025ec5d5a86e20, 0x4140c160ebf48b4c}},
	{"maritime-0001", 9, [5]uint64{0x4055bd081e55cb94, 0x3fc0de158b1850f3, 0x403c766075176bb9, 0x40310025cf0acf82, 0x412191ec35090e38}},
	{"maritime-0002", 4, [5]uint64{0x407ef7ffa3ed58e8, 0x3fbab9ed99c2e2bc, 0x4040e9e294a45ed0, 0x403b1d9e46592805, 0x4123d3ed17dc61f6}},
	{"maritime-0003", 16, [5]uint64{0x408183da1a14aeff, 0x3fc13d443b41bb83, 0x4000000000000000, 0x3ff0000000000000, 0x413054accde103b7}},
	{"maritime-0004", 8, [5]uint64{0x402d748ed1b788c0, 0x3fbb29ebc7b3551c, 0x4024cc3894a6ca34, 0x404107c21375a886, 0x4126dd77fcf14884}},
	{"maritime-0005", 3, [5]uint64{0x407d92ae7fb3ffc5, 0x3fb4ffc0255465a4, 0x401787bf0c0a5623, 0x401dd030e77a94e7, 0x41306dc68bef04eb}},
	{"maritime-0006", 21, [5]uint64{0x407d0029698cee22, 0x3fc5703cbf84a92c, 0x4038812d4b90f8c8, 0x402a781f9753e93f, 0x413599e8264693ac}},
	{"desert-0001", 7, [5]uint64{0x4000000000000000, 0x3fb8bd7a677bab2f, 0x40626cfa3a70dd08, 0x406bf677cd027991, 0x412767c97f3d0812}},
	{"desert-0002", 2, [5]uint64{0x401d0ec83b53f614, 0x3fc312613f7ee3b1, 0x4061ac8b8b3da3e8, 0x4028ecfcb6e42de5, 0x4112d69158dfe010}},
	{"desert-0003", 0, [5]uint64{0x4039a3b0c377db3a, 0x3fbc24d3dae6f320, 0x4054702a090903d0, 0x40431841a9bf3edc, 0x411a536ad6898e32}},
	{"desert-0004", 13, [5]uint64{0x4038f4cb74dd20a6, 0x3fa947e7916e5c7d, 0x402f2ceea7c5775f, 0x40334bcb19d82404, 0x4122bf0b0d2826aa}},
	{"desert-0005", 4, [5]uint64{0x404399c7fc348b38, 0x3fb7dc5725beb9b2, 0x405de75b1dfe5ff2, 0x4066b29affad3fdf, 0x41234ced02e90185}},
	{"desert-0006", 21, [5]uint64{0x403863dce6fab2c8, 0x3fb9647ba4cbaf94, 0x403d87ce84890dda, 0x404433ccac1eee24, 0x41256e3868b8b9df}},
	{"tropical-0001", 19, [5]uint64{0x4000000000000000, 0x3fb3c7b417526101, 0x4058288bcfb9985a, 0x407a400000000000, 0x4124f10b4a7f626c}},
	{"tropical-0002", 3, [5]uint64{0x4029035dd52f24f4, 0x3fb1ce0724bfc6ec, 0x4054552df4c03098, 0x407a400000000000, 0x411f38332747aedb}},
	{"tropical-0003", 13, [5]uint64{0x4042b2fff57bc10c, 0x3fc3381d3706a2ac, 0x4064f9af52ed9b4c, 0x40552ca2728380ca, 0x4107bddb16c0397a}},
	{"tropical-0004", 17, [5]uint64{0x4027e15ba8fd7714, 0x3fb099e6a5c354ae, 0x4065aa52ed9ca6d3, 0x3ff9658338e68c1a, 0x410df6ff179b44b0}},
	{"tropical-0005", 2, [5]uint64{0x404625ed1f9deeb6, 0x3fb266b6cfb8cafb, 0x40682553b3e8ce11, 0x4061c47690815f75, 0x40f98bbfb31fc219}},
	{"ridge-0001", 1, [5]uint64{0x40792fee22fd90a4, 0x3fbfd772e300266c, 0x4059edf332caa659, 0x4050ee8840e4e94b, 0x411649a3f0c19554}},
	{"ridge-0002", 3, [5]uint64{0x40952ceaa0468800, 0x3fb5a6dc2a1d0938, 0x406189f19f95a1e4, 0x403d94f90bc8414a, 0x41244dc2782be80a}},
	{"ridge-0003", 22, [5]uint64{0x406b920dc7527ec0, 0x3fb582d195f28534, 0x407cc00000000000, 0x4065766852c9378d, 0x411b75cb9418e6f5}},
	{"polar-0001", 5, [5]uint64{0x404af3795c50912d, 0x3fb981b788dfc430, 0x4082c00000000000, 0x4020d9c2f7348250, 0x4119be666396df09}},
}

// hourlyGolden pins the series.Digest of three sites' hourly α, β and PUE
// traces on the UTC clock (catalog seed 7, two representative days).
var hourlyGolden = []struct {
	id                int
	alpha, beta, pueH uint64
}{
	{3, 0x22e4ce50068fde72, 0xb95ca1a17c130fb5, 0xb3e81419febf0636},  // temperate, UTC+6
	{17, 0xb4ac0f0a2892bd36, 0x336096a9f362892d, 0xf69fc0ef1dbaf159}, // continental, UTC+8
	{38, 0x65291042e0d36ad2, 0x198c9544945c3135, 0x545b82077b7a9216}, // ridge, UTC+22
}

// TestCatalogGolden holds catalog generation bit for bit: the per-epoch
// profiles the siting evaluator reads, the summary statistics that rank and
// price sites, every other scalar field of a site, and the hourly traces
// the emulation replays.  The values were
// recorded before the hourly-series code was restructured; a failure means
// generated catalogs changed, so never re-record them to make it pass.
func TestCatalogGolden(t *testing.T) {
	for _, days := range []int{1, 2} {
		cat, err := Generate(Options{Count: 40, Seed: 7, RepresentativeDays: days})
		if err != nil {
			t.Fatal(err)
		}
		want := catalogGolden[days]
		if cat.Len() != len(want) {
			t.Fatalf("days=%d: %d sites, want %d", days, cat.Len(), len(want))
		}
		for i, s := range cat.Sites() {
			got := [7]uint64{
				series.Digest(s.Alpha), series.Digest(s.Beta), series.Digest(s.PUE),
				math.Float64bits(s.SolarCapacityFactor), math.Float64bits(s.WindCapacityFactor),
				math.Float64bits(s.AvgPUE), math.Float64bits(s.MaxPUE),
			}
			if got != want[i] {
				t.Errorf("days=%d site %d:\n got  %#x\n want %#x", days, s.ID, got, want[i])
			}
			sc := siteScalarGolden[i]
			econ := [5]uint64{
				math.Float64bits(s.LandPriceUSDPerM2), math.Float64bits(s.GridPriceUSDPerKWh),
				math.Float64bits(s.DistPowerKm), math.Float64bits(s.DistNetworkKm),
				math.Float64bits(s.NearestPlantKW),
			}
			if s.Name != sc.name || s.UTCOffsetHours != sc.offset || econ != sc.econ {
				t.Errorf("days=%d site %d scalars:\n got  %q UTC+%d %#x\n want %q UTC+%d %#x",
					days, s.ID, s.Name, s.UTCOffsetHours, econ,
					sc.name, sc.offset, sc.econ)
			}
		}
		if days != 2 {
			continue
		}
		for _, h := range hourlyGolden {
			s, err := cat.Site(h.id)
			if err != nil {
				t.Fatal(err)
			}
			alpha, beta, pueH := hourlyUTCOf(s)
			got := [3]uint64{series.Digest(alpha), series.Digest(beta), series.Digest(pueH)}
			if want := [3]uint64{h.alpha, h.beta, h.pueH}; got != want {
				t.Errorf("site %d hourly UTC traces:\n got  %#x\n want %#x", h.id, got, want)
			}
		}
	}
}

// hourlyUTCOf returns the site's hourly α, β and PUE traces on the UTC clock.
func hourlyUTCOf(s *Site) (alpha, beta, pueH []float64) {
	year := series.NewBlock(3, HoursPerYear)
	s.HourlyProfilesUTC(year.Row(0), year.Row(1), year.Row(2))
	return year.Row(0), year.Row(1), year.Row(2)
}
