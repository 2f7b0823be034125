package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import scala.util.Random
import scala.util.control.NonFatal
import repro.core.PbcCodec
import repro.data.MachineData
import repro.kvstore.{TierBaseLite, ValueCodec}
import repro.tables.Dictionaries

/** kv-serve: TierBase-lite with PBC_F values on KV2-shaped records (the
  * data of the paper's Table 8 workload B). Each round SETs the whole
  * keyspace, runs one closed-loop client through a GET/SET mix in which
  * SETs overwrite keys with fresh records, and finally GETs every key.
  * The store is an unsynchronised in-process map whose callers wait for
  * each reply, so one closed-loop client is its natural load.
  */
object KvServe {
  val Dataset = "KV2"
  val TrainRecords = 20000
  val Keys = 100000
  val FreshValues = 50000
  val OpsPerRound = 200000
  /** The operation mix of YCSB core workload B (Cooper et al., SoCC
    * 2010): 95 % reads and 5 % updates, keys drawn from a Zipfian
    * distribution with YCSB's constant 0.99.
    */
  val SetShare = 0.05
  val ZipfTheta = 0.99

  /** Times every encode and decode of the store's value codec. */
  private final class TimedCodec(inner: ValueCodec, tr: Tracer) extends ValueCodec {
    private val sEncode = tr.id("kv.encode")
    private val sDecode = tr.id("kv.decode")
    override def name: String = inner.name
    override def encode(v: String): Array[Byte] = { tr.begin(sEncode); try inner.encode(v) finally tr.end() }
    override def decode(b: Array[Byte]): String = { tr.begin(sDecode); try inner.decode(b) finally tr.end() }
  }

  private final class CorruptCodec(inner: ValueCodec) extends ValueCodec {
    override def name: String = inner.name
    override def encode(v: String): Array[Byte] = Corrupt.flip(inner.encode(v))
    override def decode(b: Array[Byte]): String = inner.decode(b)
  }

  def run(o: Opts, tr: Tracer): Outcome = {
    val cfg = Training.draw(Dictionaries.pbcConfig(Dataset).copy(withFsst = true), o.draw)
    val train = MachineData.records(Dataset, TrainRecords, o.seed)
    val (dict, setupS) = Training.train(train, cfg, tr)

    val served = MachineData.records(Dataset, Keys + FreshValues, o.serveSeed)
    val values = served.take(Keys).toArray
    val fresh = served.drop(Keys).toArray
    val keys = Array.tabulate(Keys)(i => f"user:$i%08d")
    val rawBytes = values.iterator.map(_.getBytes(UTF_8).length.toLong).sum

    val rnd = new Random(o.serveSeed)
    val zipf = new Zipf(Keys, ZipfTheta, rnd)
    val opKey = Array.fill(OpsPerRound)(zipf.next())
    val opSet = Array.fill(OpsPerRound)(rnd.nextDouble() < SetShare)

    val plainCodec = new ValueCodec.PbcF(new PbcCodec(dict, useFsst = true))
    val codec = if (o.corrupt) new CorruptCodec(plainCodec) else plainCodec

    val checks = new Checks
    val setLat, getLat = new Samples
    val sSet = tr.id("kv.set")
    val sGet = tr.id("kv.get")

    // one store per tracer, filled once; every round then overwrites the
    // whole keyspace, so rounds start from the same state without
    // rebuilding the map
    def filled(c: ValueCodec): TierBaseLite = {
      val s = new TierBaseLite(c)
      for (i <- 0 until Keys) s.set(keys(i), values(i))
      s
    }
    val plainStore = filled(codec)
    lazy val tracedStore = filled(new TimedCodec(codec, tr))

    // value and memory bytes of the store with the whole keyspace freshly written
    var valueBytes, memoryBytes = 0L

    def round(n: Int, t: Tracer): RoundStats = {
      val measured = n >= 0
      val store = if (t.enabled) tracedStore else plainStore
      val expected = values.clone()
      def set(k: Int, v: String): Unit = {
        t.begin(sSet)
        var ok = true
        try store.set(keys(k), v) catch { case NonFatal(_) => ok = false }
        t.end()
        checks.ok(ok)
      }
      def get(k: Int): String = {
        t.begin(sGet)
        val v = try store.get(keys(k)).orNull catch { case NonFatal(_) => null }
        t.end()
        v
      }
      val start = System.nanoTime()

      var i = 0
      while (i < Keys) { set(i, values(i)); i += 1 }
      val loaded = System.nanoTime()
      valueBytes = store.valueBytes
      memoryBytes = store.memoryBytes

      var j = 0
      while (j < OpsPerRound) {
        val k = opKey(j)
        val t0 = System.nanoTime()
        if (opSet(j)) {
          val v = fresh(j % FreshValues)
          set(k, v)
          if (measured && !t.enabled) setLat.add(System.nanoTime() - t0)
          expected(k) = v
        } else {
          val v = get(k)
          if (measured && !t.enabled) getLat.add(System.nanoTime() - t0)
          checks.ok(v == expected(k))
        }
        j += 1
      }
      val mixed = System.nanoTime()

      val out = new Array[String](Keys)
      i = 0
      while (i < Keys) { out(i) = get(i); i += 1 }
      val end = System.nanoTime()
      i = 0
      while (i < Keys) { checks.ok(out(i) == expected(i)); i += 1 }
      setLat.endRound()
      getLat.endRound()
      val sweptBytes = expected.iterator.map(_.getBytes(UTF_8).length.toLong).sum

      new RoundStats(rawBytes * 1e3 / (loaded - start), sweptBytes * 1e3 / (end - mixed),
        OpsPerRound * 1e9 / (mixed - loaded), end - start)
    }

    val m = new Metrics
    val jvm0 = Jvm.snap()
    val rounds = Rounds.measure(o.seconds, Seq(new Tracer(enabled = false)) ++ Option.when(o.trace)(tr))(round)
    val plain = rounds.head
    val jvm1 = Jvm.snap()
    if (!o.trace) {
      Report.endToEnd(m, setupS, valueBytes.toDouble / rawBytes, plain, getLat)
    } else {
      Jvm.put(m, jvm0, jvm1)
      Report.traced(m, rounds(1), plain, getLat)
      m.put("set_p50_us", setLat.percentile(50) / 1e3, "us")
      m.put("set_p99_us", setLat.roundPercentile(99) / 1e3, "us")
      m.put("kv.set_ns", tr.meanNs("kv.set"), "ns")
      m.put("kv.encode_ns", tr.meanNs("kv.encode"), "ns")
      m.put("kv.get_ns", tr.meanNs("kv.get"), "ns")
      m.put("kv.decode_ns", tr.meanNs("kv.decode"), "ns")
      m.put("kv.value_bytes", valueBytes.toDouble, "B")
      m.put("kv.memory_bytes", memoryBytes.toDouble, "B")
      Training.metrics(train, cfg, dict, tr, m)
      CodecReplay.run(values.toIndexedSeq, dict, useFsst = true, tr, checks, m)
    }

    Outcome(m, checks, skipped = Seq("pbc.", "spark."),
      env = Map("dataset" -> Dataset, "records" -> Keys, "raw_bytes" -> rawBytes,
        "train_records" -> TrainRecords, "ops_per_round" -> OpsPerRound, "set_share" -> SetShare,
        "zipf_theta" -> ZipfTheta, "clients" -> 1),
      detail = RoundStats.detail(plain) ++ Map("get_samples" -> getLat.size, "set_samples" -> setLat.size,
        "setup_s" -> setupS))
  }
}
