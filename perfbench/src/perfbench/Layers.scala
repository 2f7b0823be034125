package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import repro.core.{Clustering, FieldEncoder, PatternDictionary, PatternExtractor, PbcCodec}

/** Training: the offline phase every workload pays before it serves.
  *
  * A dictionary depends on which records its clustering sample drew, and
  * its cost per record moves with it (patterns tried, FSST residuals). So
  * a run forks one JVM per draw (see run.py); draw `k` trains on the same
  * corpus from its own sample, and one lucky or unlucky sample then moves
  * the run's medians less. Training is the first work a JVM does, so the
  * set-up it times is a cold one.
  */
object Training {

  /** Extractor config of draw `k`: the sampling seed steps by two, since
    * the calibration sample uses the sampling seed plus one.
    */
  def draw(cfg: PatternExtractor.Config, k: Int): PatternExtractor.Config =
    cfg.copy(seed = cfg.seed + 2L * k)

  /** Trains one dictionary, returning it and its training time in seconds. */
  def train(records: Seq[String], cfg: PatternExtractor.Config, tr: Tracer): (PatternDictionary, Double) = {
    val t0 = System.nanoTime()
    val d = tr.span("core.train")(PatternExtractor.train(records, cfg))
    (d, (System.nanoTime() - t0) / 1e9)
  }

  /** Per-layer training metrics, timed warm after the rounds: plain
    * training, clustering of its sample and, when the config trains FSST
    * too, FSST training as training with it minus training without.
    */
  def metrics(records: Seq[String], cfg: PatternExtractor.Config, dict: PatternDictionary,
      tr: Tracer, m: Metrics): Unit = {
    val plainS = train(records, cfg.copy(withFsst = false), tr)._2
    val fsstS = if (cfg.withFsst) train(records, cfg, tr)._2 - plainS else 0.0
    val ccfg = Clustering.Config(cfg.k, cfg.maxPatternLen, cfg.criterion, cfg.usePruning)
    val sample = PatternExtractor.sample(records, cfg)
    val t0 = System.nanoTime()
    tr.span("core.cluster")(Clustering.cluster(sample, ccfg))
    m.put("core.train_s", plainS, "s")
    m.put("core.cluster_s", (System.nanoTime() - t0) / 1e9, "s")
    m.put("core.patterns", dict.size.toDouble, "count")
    m.put("core.dict_bytes", dict.serialize.length.toDouble, "B")
    m.put("fsst.train_s", fsstS, "s")
  }
}

/** Codec-layer replay for the traced run.
  *
  * Goes once over a fixed record set and times each
  * public call of the codec layers in its own span: `PbcCodec.compress`
  * and `decompress`, the pattern matcher, and `FsstTable.encode`/`decode`
  * on exactly the residuals the codec hands to FSST. The matcher is
  * replayed through `Pattern.matchRecord` in dictionary order with the
  * codec's `litLen` skip, so its counters are the codec's own work. Every
  * count depends only on the records and the dictionary, so it repeats
  * exactly for a seed. Every replayed round trip is checked.
  */
object CodecReplay {

  def run(records: IndexedSeq[String], dict: PatternDictionary, useFsst: Boolean,
      tr: Tracer, checks: Checks, m: Metrics): Unit = {
    val codec = new PbcCodec(dict, useFsst)
    val table = if (useFsst) dict.fsst else None
    val pats = dict.patterns
    val sCompress = tr.id("core.compress")
    val sMatch = tr.id("core.match")
    val sDecompress = tr.id("core.decompress")
    val sEncode = tr.id("fsst.encode")
    val sDecode = tr.id("fsst.decode")

    var tried, hits, outliers, codedBytes, residuals, wins = 0L
    val coded = new Array[Array[Byte]](records.length)
    var i = 0
    while (i < records.length) {
      val r = records(i)
      tr.begin(sCompress)
      coded(i) = codec.compress(r)
      tr.end()
      codedBytes += coded(i).length

      // the codec's selection loop: first pattern (longest literal first)
      // whose glob matches and whose encoders all accept the captures
      tr.begin(sMatch)
      var id = 0
      var chosen: Vector[String] = null
      while (chosen == null && id < pats.length) {
        val cp = pats(id)
        if (cp.pattern.litLen <= r.length) {
          tried += 1
          cp.pattern.matchRecord(r) match {
            case Some(caps) =>
              hits += 1
              if (caps.indices.forall(f => cp.encoders(f).accepts(caps(f)))) chosen = caps
            case None => ()
          }
        }
        if (chosen == null) id += 1
      }
      tr.end()

      table.foreach { t =>
        // residuals the codec FSST-codes: VARCHAR fields, CHAR(n >= 4)
        // fields, or the whole record when it is an outlier
        val chunks =
          if (chosen == null) Iterator(r)
          else chosen.indices.iterator.filter { f =>
            pats(id).encoders(f) match {
              case FieldEncoder.VarChar  => true
              case FieldEncoder.Char_(n) => n >= 4
              case _                     => false
            }
          }.map(chosen)
        chunks.foreach { s =>
          val raw = s.getBytes(UTF_8)
          tr.begin(sEncode)
          val enc = t.encode(raw)
          tr.end()
          residuals += 1
          if (enc.length < raw.length) wins += 1
          tr.begin(sDecode)
          val dec = t.decode(enc)
          tr.end()
          checks.ok(java.util.Arrays.equals(dec, raw))
        }
      }
      if (chosen == null) outliers += 1
      i += 1
    }
    i = 0
    while (i < records.length) {
      tr.begin(sDecompress)
      val back =
        try codec.decompress(coded(i)) catch { case scala.util.control.NonFatal(_) => null }
      tr.end()
      checks.ok(back == records(i))
      i += 1
    }
    // the replayed selection must agree with the codec's own outlier count
    checks.ok(outliers == codec.outlierCount)

    // allocation per call, on the now-warm code paths without spans
    val a0 = Jvm.threadAllocated()
    records.foreach(codec.compress)
    val a1 = Jvm.threadAllocated()
    coded.foreach(codec.decompress)
    val a2 = Jvm.threadAllocated()

    val n = records.length.toDouble
    m.put("core.compress_ns", tr.meanNs("core.compress"), "ns")
    m.put("core.match_ns", tr.meanNs("core.match"), "ns")
    m.put("core.patterns_tried", tried / n, "tries/rec")
    m.put("core.match_hit_ratio", if (tried == 0) 0.0 else hits.toDouble / tried, "hits/try")
    m.put("core.outlier_rate", outliers / n, "outliers/rec")
    m.put("core.coded_bytes", codedBytes.toDouble, "B")
    m.put("core.compress_alloc_b", (a1 - a0) / n, "B/call")
    m.put("core.decompress_ns", tr.meanNs("core.decompress"), "ns")
    m.put("core.decompress_alloc_b", (a2 - a1) / n, "B/call")
    m.put("fsst.encode_ns", tr.meanNs("fsst.encode"), "ns")
    m.put("fsst.residuals", residuals.toDouble, "count")
    m.put("fsst.win_share", if (residuals == 0) 0.0 else wins.toDouble / residuals, "wins/residual")
    m.put("fsst.decode_ns", tr.meanNs("fsst.decode"), "ns")
  }
}
