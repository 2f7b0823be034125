"""Build file of the benchmark: compiles the program's Scala sources and
the benchmark's own harness into one class directory.

The Scala compiler and every library come from the Spark distribution
(`$SPARK_HOME/jars`, else the one holding `spark-submit` on PATH), so the
build needs no dependency resolution. A build is reused while the hash of
its inputs is unchanged.

    python3 perfbench/build.py      # prints the class directory
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCALA = "2.13.17"


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isfile(os.path.join(jars, f"scala-compiler-{SCALA}.jar")):
        raise BuildError("no Spark distribution with Scala %s found: set SPARK_HOME" % SCALA)
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.isfile(exe):
        raise BuildError("no java found: set JAVA_HOME or put java on PATH")
    return exe


def sources():
    program = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError("program sources not found under src/main/scala")
    harness = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return program + harness


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(log=sys.stderr):
    """Compiles if needed; returns (class directory, classpath, source hash)."""
    jars = spark_jars()
    files = sources()
    digest = source_hash(files)
    classes = os.path.join(BUILD, "classes")
    stamp = os.path.join(BUILD, "classes.sha256")
    resources = os.path.join(ROOT, "src", "main", "resources")
    classpath = os.pathsep.join([classes, resources, os.path.join(jars, "*")])
    if os.path.isfile(stamp) and open(stamp).read().strip() == digest:
        return classes, classpath, digest
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    compiler = os.pathsep.join(
        os.path.join(jars, f"scala-{p}-{SCALA}.jar") for p in ("compiler", "library", "reflect"))
    cmd = [java(), "-Xss4m", "-Xmx2g", "-cp", compiler, "scala.tools.nsc.Main",
           "-nowarn", "-d", classes, "-classpath", os.path.join(jars, "*")] + files
    print(f"perfbench: compiling {len(files)} sources", file=log)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=log)
        raise BuildError("scalac failed")
    with open(stamp, "w") as fh:
        fh.write(digest + "\n")
    return classes, classpath, digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
